"""The per-token text pipeline, kept as the oracle for the memoised one.

:class:`ReferencePipeline` takes :class:`repro.text.TextPipeline`'s
arguments and runs every stage on every token, one token at a time:
``finditer``, the length and number rules, the stop-word test, then
the stemmer. ``TextPipeline`` answers each surface token from a memo
instead; both must give the same terms in the same order.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional

from repro.text import DEFAULT_STOPWORDS, PorterStemmer, Tokenizer

#: The token pattern over ``str``; the library matches it over bytes.
TOKEN_RE = re.compile(r"[a-z0-9]+(?:['\-][a-z0-9]+)*")

_USE_DEFAULT = object()


def reference_tokens(tokenizer: Tokenizer, text: str) -> Iterator[str]:
    """The tokens ``tokenizer`` keeps from ``text``, in document order."""
    if not isinstance(text, str):
        raise TypeError(f"text must be str, got {type(text).__name__}")
    for match in TOKEN_RE.finditer(text.lower()):
        token = match.group(0).strip("'-")
        if len(token) < tokenizer.min_length:
            continue
        if token.isdigit():
            if not tokenizer.keep_numbers:
                continue
            if len(token) < tokenizer.min_number_length:
                continue
        if token:
            yield token


class ReferencePipeline:
    """``TextPipeline``'s stages applied token by token.

    The default stemmer is a fresh :class:`PorterStemmer`, so the oracle
    never touches the library's shared memo.
    """

    def __init__(
        self,
        tokenizer: Optional[Tokenizer] = None,
        stopwords: Optional[FrozenSet[str]] = None,
        stemmer: Optional[Callable[[str], str]] = _USE_DEFAULT,  # type: ignore[assignment]
    ) -> None:
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.stopwords = DEFAULT_STOPWORDS if stopwords is None else stopwords
        self.stemmer = PorterStemmer() if stemmer is _USE_DEFAULT else stemmer

    def terms(self, text: str) -> List[str]:
        terms: List[str] = []
        for token in reference_tokens(self.tokenizer, text):
            if token in self.stopwords:
                continue
            if self.stemmer is not None:
                token = self.stemmer(token)
            if token:
                terms.append(token)
        return terms

    def term_frequencies(self, text: str) -> Dict[str, int]:
        return dict(Counter(self.terms(text)))

    def query_frequencies(self, text: str) -> Dict[str, int]:
        """A query's counts: the oracle keeps no memo to leave alone."""
        return self.term_frequencies(text)
