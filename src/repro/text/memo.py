"""The text front end's memo: surface token -> final term.

A news stream is Zipfian, so the few thousand surface forms it uses
recur millions of times. :class:`TermMemo` caches, per surface token,
everything the pipeline decides about it: the length and number rules,
the stop-word test and the stem. A token then costs one dict lookup;
only a miss runs those steps. ``""`` marks a dropped token.

The memo is bounded: when it is full it is emptied before the next
insert. That needs no per-hit bookkeeping, and every operation on the
dict is a single atomic step, so threads may share one memo without a
lock (a race costs at most a repeated stem).
"""

from __future__ import annotations

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
    >>> memo.lookup(["the", "cat", "7", "cat"])
    ['', 'cat', '', 'cat']
    >>> memo.hits, memo.misses
    (0, 4)
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
        self.terms: Dict[str, str] = {}
        self.hits = 0
        self.misses = 0

    def term(self, token: str) -> str:
        """The final term of ``token``, or ``""`` when it is dropped."""
        if token in self.stopwords or not self.tokenizer.keeps(token):
            return ""
        if self.stem is None:
            return token
        return self.stem(token) or ""

    def lookup(self, tokens: List[str]) -> List[str]:
        """The final term of each token, in order (``""`` = dropped).

        Every token counts once: a hit when the memo held it as the
        call began, a miss otherwise, so ``hits + misses`` is the
        number of tokens looked up.
        """
        terms = self.terms
        found = list(map(terms.get, tokens))
        missing = found.count(None)
        self.hits += len(found) - missing
        if missing:
            self.misses += missing
            for index, term in enumerate(found):
                if term is None:
                    found[index] = self._insert(tokens[index])
        return cast(List[str], found)

    def _insert(self, token: str) -> str:
        terms = self.terms
        term = terms.get(token)
        if term is None:
            term = self.term(token)
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
