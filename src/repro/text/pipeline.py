"""End-to-end text pipeline: tokenize -> stop-word filter -> stem -> count.

:class:`TextPipeline` is the single entry point used by the corpus layer
to convert document bodies to term-frequency mappings. All stages are
pluggable so experiments can e.g. disable stemming.

Every configuration starts the same way: fold the text to its surface
tokens as ASCII bytes (:func:`~repro.text.tokenizer.surface_tokens`),
then answer each from a :class:`~repro.text.memo.TermMemo`, which holds
its final term (or ``""`` when a stage drops it). Unigram counts come
from :meth:`~repro.text.memo.TermMemo.count`, which maps and counts the
tokens in C. With n-grams the memo returns the term sequence
(:meth:`~repro.text.memo.TermMemo.lookup`), because a window needs the
terms in order.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence

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

# -- process-pool plumbing ------------------------------------------------
# Workers receive the pipeline once via the initializer instead of once
# per chunk; ``executor.map`` preserves submission order, so the chunked
# results concatenate back into input order.

_WORKER_PIPELINE: Optional["TextPipeline"] = None


def _init_worker(pipeline: "TextPipeline") -> None:
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = pipeline


def _process_chunk(texts: Sequence[str]) -> List[Dict[str, int]]:
    assert _WORKER_PIPELINE is not None
    return [_WORKER_PIPELINE.term_frequencies(text) for text in texts]


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
        Callable mapping token -> stem; defaults to a process-wide
        shared :class:`~repro.text.stemmer.MemoizedStemmer`. Pass
        ``None`` to disable stemming. A ``MemoizedStemmer`` holds the
        pipeline's term memo, so its ``cache_clear()`` empties it; any
        other stemmer gets a memo private to the pipeline. Either way a
        stemmer is called once per surface form the memo has not seen.
    max_ngram:
        Emit word n-grams up to this length in addition to unigrams
        (n-grams join stems with ``_``; they are built over contiguous
        post-filter terms, so a removed stop word breaks the window —
        "bank of england" yields the bigram ``bank_england``).

    >>> TextPipeline().term_frequencies("The markets rallied; markets rose.")
    {'market': 2, 'ralli': 1, 'rose': 1}
    >>> TextPipeline(max_ngram=2).terms("stock market")
    ['stock', 'market', 'stock_market']
    """

    def __init__(
        self,
        tokenizer: Optional[Tokenizer] = None,
        stopwords: Optional[FrozenSet[str]] = None,
        stemmer: Optional[Callable[[str], str]] = _USE_DEFAULT,  # type: ignore[assignment]
        max_ngram: int = 1,
    ) -> None:
        if not isinstance(max_ngram, int) or max_ngram < 1:
            raise ValueError(f"max_ngram must be an int >= 1, got {max_ngram!r}")
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.stopwords = frozenset(
            DEFAULT_STOPWORDS if stopwords is None else stopwords
        )
        self.stemmer = _DEFAULT_STEMMER if stemmer is _USE_DEFAULT else stemmer
        self.max_ngram = max_ngram
        # the stages are read once, here: the memo holds their results
        self._memo = (
            self.stemmer.term_memo(self.tokenizer, self.stopwords)
            if isinstance(self.stemmer, MemoizedStemmer)
            else TermMemo(self.tokenizer, self.stopwords, self.stemmer)
        )

    def terms(self, text: str) -> List[str]:
        """Return the processed term sequence for ``text``.

        Unigrams come first in document order, followed by the
        higher-order n-grams in document order.
        """
        return self._ngrams(self._memo.lookup(surface_tokens(text)))

    def _ngrams(self, looked_up: List[str]) -> List[str]:
        """The kept unigrams of ``looked_up``, then their n-grams."""
        unigrams = list(filter(None, looked_up))
        if self.max_ngram == 1:
            return unigrams
        terms = list(unigrams)
        for n in range(2, self.max_ngram + 1):
            for start in range(len(unigrams) - n + 1):
                terms.append("_".join(unigrams[start:start + n]))
        return terms

    def term_frequencies(self, text: str) -> Dict[str, int]:
        """Return ``{term: count}`` for ``text`` after all stages, in
        order of first occurrence; timed as the ``text.terms`` span."""
        with Span(resolve(None), "text.terms"):
            if self.max_ngram == 1:
                return self._memo.count(surface_tokens(text))
            return dict(Counter(self.terms(text)))

    def query_frequencies(self, text: str) -> Dict[str, int]:
        """:meth:`term_frequencies` for a query: the same counts, but
        the term memo is only read (:meth:`~repro.text.memo.TermMemo.
        peek`), so queries neither fill it nor move its hit counters."""
        return dict(Counter(self._ngrams(
            self._memo.peek(surface_tokens(text))
        )))

    def batch_term_frequencies(
        self,
        texts: Iterable[str],
        jobs: Optional[int] = None,
        chunk_size: int = 256,
    ) -> List[Dict[str, int]]:
        """Vector of :meth:`term_frequencies` over an iterable of texts.

        With ``jobs`` > 1 the texts are processed in ``chunk_size``
        chunks by a process pool; results come back in input order.
        ``jobs`` of ``None``, 0 or 1 (or a batch too small to amortise
        pool start-up) runs serially, and any pool failure (e.g. an
        unpicklable custom stage) falls back to the serial path, so the
        parallel call is always safe to make. The timing span and
        stemmer-cache gauges go to the ambient obs recorder.
        """
        text_list = list(texts)
        recorder = resolve(None)
        with Span(recorder, "text.batch_terms",
                  {"texts": len(text_list), "jobs": jobs or 1}):
            if jobs is None or jobs <= 1 or len(text_list) <= chunk_size:
                result = [self.term_frequencies(text) for text in text_list]
            else:
                result = self._batch_parallel(text_list, jobs, chunk_size)
            cache_info = getattr(self.stemmer, "cache_info", None)
            if callable(cache_info) and recorder.enabled:
                info = cache_info()
                recorder.gauge("text.stemmer_cache.hits", info["hits"])
                recorder.gauge("text.stemmer_cache.misses", info["misses"])
                recorder.gauge("text.stemmer_cache.size", info["currsize"])
        return result

    def _batch_parallel(
        self, texts: List[str], jobs: int, chunk_size: int
    ) -> List[Dict[str, int]]:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [
            texts[start:start + chunk_size]
            for start in range(0, len(texts), chunk_size)
        ]
        try:
            with ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_init_worker,
                initargs=(self,),
            ) as pool:
                chunk_results = list(pool.map(_process_chunk, chunks))
        except Exception:
            # unpicklable stage, missing multiprocessing support, ... —
            # parallelism is an optimisation, never a requirement
            return [self.term_frequencies(text) for text in texts]
        return [freqs for chunk in chunk_results for freqs in chunk]
