"""End-to-end text pipeline: tokenize -> stop-word filter -> stem -> count.

:class:`TextPipeline` is the single entry point used by the corpus layer
to convert document bodies to term-frequency mappings. All stages are
pluggable so experiments can e.g. disable stemming.

A text is folded to its surface tokens as ASCII bytes
(:func:`~repro.text.tokenizer.surface_tokens`), and each token is
answered from a :class:`~repro.text.memo.TermMemo`, which holds its
final term (or ``""`` when a stage drops it). The counts come from
:meth:`~repro.text.memo.TermMemo.count`, which maps and counts the
tokens in C.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Union

from ..obs import Span, resolve
from .memo import TermMemo
from .stemmer import MemoizedStemmer
from .stopwords import DEFAULT_STOPWORDS
from .tokenizer import Tokenizer, surface_tokens

#: Shared default stemmer: its memos serve every pipeline that does not
#: bring its own stemmer, so they warm once per process.
_DEFAULT_STEMMER = MemoizedStemmer()

#: Sentinel distinguishing "use the shared default" from "no stemming".
_USE_DEFAULT = object()


class TextPipeline:
    """Convert raw text to (stemmed) term-frequency dictionaries.

    Parameters
    ----------
    tokenizer:
        Token extractor; defaults to :class:`~repro.text.Tokenizer`.
    stopwords:
        Set of surface forms removed *before* stemming. Pass an empty
        set to keep everything.
    stemmer:
        A :class:`~repro.text.stemmer.MemoizedStemmer` or any callable
        mapping token -> stem; defaults to a process-wide shared
        ``MemoizedStemmer``. Pass ``None`` to disable stemming. A
        ``MemoizedStemmer`` holds the pipeline's term memo, so its
        ``cache_clear()`` empties it; any other stemmer gets a memo
        private to the pipeline. Either way a stemmer is called once
        per surface form the memo has not seen.

    Queries (:meth:`query_frequencies`) count through a second memo,
    private to the pipeline, so readers never fill or clear the memo
    documents go through, nor move the counters a ``MemoizedStemmer``
    reports.

    >>> TextPipeline().term_frequencies("The markets rallied; markets rose.")
    {'market': 2, 'ralli': 1, 'rose': 1}
    """

    def __init__(
        self,
        tokenizer: Optional[Tokenizer] = None,
        stopwords: Optional[FrozenSet[str]] = None,
        stemmer: Union[MemoizedStemmer, Callable[[str], str], None] = _USE_DEFAULT,  # type: ignore[assignment]
    ) -> None:
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.stopwords = frozenset(
            DEFAULT_STOPWORDS if stopwords is None else stopwords
        )
        self.stemmer = _DEFAULT_STEMMER if stemmer is _USE_DEFAULT else stemmer
        # the stages are read once, here: the memos hold their results
        memo = self._memo = (
            self.stemmer.term_memo(self.tokenizer, self.stopwords)
            if isinstance(self.stemmer, MemoizedStemmer)
            else TermMemo(self.tokenizer, self.stopwords, self.stemmer)
        )
        self._query_memo = TermMemo(memo.tokenizer, memo.stopwords,
                                    memo.stem, memo.maxsize)

    def terms(self, text: str) -> List[str]:
        """Return the processed term sequence for ``text``, in document
        order."""
        return list(filter(None, self._memo.lookup(surface_tokens(text))))

    def term_frequencies(self, text: str) -> Dict[str, int]:
        """Return ``{term: count}`` for ``text`` after all stages, in
        order of first occurrence; timed as the ``text.terms`` span."""
        with Span(resolve(None), "text.terms"):
            return self._memo.count(surface_tokens(text))

    def query_frequencies(self, text: str) -> Dict[str, int]:
        """:meth:`term_frequencies` for a query: the same counts, taken
        through the pipeline's query memo, so queries leave the document
        memo and its counters alone."""
        return self._query_memo.count(surface_tokens(text))

    def batch_term_frequencies(
        self, texts: Iterable[str]
    ) -> List[Dict[str, int]]:
        """:meth:`term_frequencies` of each text, in order, timed as the
        ``text.batch_terms`` span; the stemmer-cache gauges go to the
        ambient obs recorder."""
        text_list = list(texts)
        recorder = resolve(None)
        with Span(recorder, "text.batch_terms", {"texts": len(text_list)}):
            result = [self.term_frequencies(text) for text in text_list]
            if isinstance(self.stemmer, MemoizedStemmer) and recorder.enabled:
                info = self.stemmer.cache_info()
                recorder.gauge("text.stemmer_cache.hits", info["hits"])
                recorder.gauge("text.stemmer_cache.misses", info["misses"])
                recorder.gauge("text.stemmer_cache.size", info["currsize"])
        return result
