"""The text front end's memo: surface token -> final term.

A news stream is Zipfian, so the few thousand surface forms it uses
recur millions of times. :class:`TermMemo` caches, per surface token
(the ASCII ``bytes`` of :func:`~repro.text.tokenizer.surface_tokens`),
everything the pipeline decides about it: the length and number rules,
the stop-word test and the stem. A token then costs one dict lookup;
only a miss decodes it and runs those steps. ``""`` marks a dropped
token.

:meth:`TermMemo.count` turns a document's tokens into term counts
without a Python-level loop per token: ``map(dict.get)`` answers every
token, and :class:`collections.Counter` counts the answers, both in C.

The memo is bounded: when it is full it is emptied before the next
insert. That needs no per-hit bookkeeping, and every operation on the
dict is a single atomic step, so threads may share one memo without a
lock (a race costs at most a repeated stem).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, FrozenSet, List, Optional, cast

from .tokenizer import Tokenizer

#: Entries a memo holds before it is emptied.
DEFAULT_MAXSIZE = 1 << 16


class TermMemo:
    """Bounded map from surface token to the pipeline's final term.

    ``tokenizer`` contributes its length and number rules, ``stopwords``
    are tested before ``stem`` (``None`` keeps tokens unstemmed). The
    memo keeps its own copy of the tokenizer, so what it holds stays a
    function of the settings it was built with.

    >>> memo = TermMemo(Tokenizer(), frozenset({"the"}), None, maxsize=8)
    >>> memo.lookup([b"the", b"cat", b"7", b"cat"])
    ['', 'cat', '', 'cat']
    >>> memo.count([b"cats", b"the", b"cat", b"cats"])
    {'cats': 2, 'cat': 1}
    >>> memo.hits, memo.misses
    (2, 6)
    >>> len(memo), memo.lookup([b"cats"]), memo.hits
    (4, ['cats'], 3)
    """

    __slots__ = ("tokenizer", "stopwords", "stem", "maxsize", "terms",
                 "hits", "misses")

    def __init__(
        self,
        tokenizer: Tokenizer,
        stopwords: FrozenSet[str],
        stem: Optional[Callable[[str], str]],
        maxsize: int = DEFAULT_MAXSIZE,
    ) -> None:
        self.tokenizer = Tokenizer(*tokenizer.settings)
        self.stopwords = stopwords
        self.stem = stem
        self.maxsize = maxsize
        self.terms: Dict[bytes, str] = {}
        self.hits = 0
        self.misses = 0

    def term(self, token: str) -> str:
        """The final term of ``token``, or ``""`` when it is dropped."""
        if token in self.stopwords or not self.tokenizer.keeps(token):
            return ""
        if self.stem is None:
            return token
        return self.stem(token) or ""

    def lookup(self, tokens: List[bytes]) -> List[str]:
        """The final term of each token, in order (``""`` = dropped).

        Every token counts once: a hit when the memo held it as the
        call began, a miss otherwise, so ``hits + misses`` is the
        number of tokens looked up.
        """
        found = list(map(self.terms.get, tokens))
        missing = found.count(None)
        self.hits += len(found) - missing
        if missing:
            self.misses += missing
            self._fill(found, tokens)
        return cast(List[str], found)

    def count(self, tokens: List[bytes]) -> Dict[str, int]:
        """``{term: occurrences}`` over ``tokens``, dropped tokens left
        out, in order of each term's first occurrence.

        The counters move as they would for :meth:`lookup` of the same
        tokens. Each token costs one ``dict.get`` and one count, both
        in C; only a document with a miss maps its tokens a second time,
        to fill the misses in order.
        """
        terms = self.terms
        counts = Counter(map(terms.get, tokens))
        missing = counts.pop(None, 0)
        self.hits += len(tokens) - missing
        if missing:
            self.misses += missing
            counts = Counter(self._fill(list(map(terms.get, tokens)), tokens))
        counts.pop("", None)
        return cast(Dict[str, int], dict(counts))  # no None is left

    def _fill(self, found: List[Optional[str]],
              tokens: List[bytes]) -> List[Optional[str]]:
        """Replace each ``None`` in ``found`` by its token's term."""
        for index, term in enumerate(found):
            if term is None:
                found[index] = self._insert(tokens[index])
        return found

    def _insert(self, token: bytes) -> str:
        terms = self.terms
        term = terms.get(token)
        if term is None:
            term = self.term(token.decode("ascii"))
            if len(terms) >= self.maxsize:
                terms.clear()
            terms[token] = term
        return term

    def clear(self) -> None:
        """Empty the memo and reset its counters."""
        self.terms.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.terms)
