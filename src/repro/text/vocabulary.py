"""Term vocabulary: a bidirectional term <-> integer-id mapping.

Every downstream structure (sparse vectors, statistics, cluster
representatives) keys terms by integer id; this class owns the mapping.
Ids are dense, assigned in first-seen order, and never reused — which is
what the incremental statistics update of Section 5.1 of the paper
requires ("additional terms incorporated by the insertion of documents
``t_{n+1} .. t_{n+n'}``").
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, cast

from ..exceptions import VocabularyFrozenError


class Vocabulary:
    """Grow-only mapping of term strings to dense integer ids.

    >>> vocab = Vocabulary()
    >>> vocab.add("stock")
    0
    >>> vocab.add("market")
    1
    >>> vocab.add("stock")
    0
    >>> vocab.term(1)
    'market'
    """

    __slots__ = ("_term_to_id", "_id_to_term", "_frozen")

    def __init__(self, terms: Iterable[str] = ()) -> None:
        self._term_to_id: Dict[str, int] = {}
        self._id_to_term: List[str] = []
        self._frozen = False
        for term in terms:
            self.add(term)

    def add(self, term: str) -> int:
        """Return the id of ``term``, assigning a new id if unseen."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        if self._frozen:
            raise VocabularyFrozenError(
                f"cannot add term {term!r}: vocabulary is frozen"
            )
        term_id = len(self._id_to_term)
        self._term_to_id[term] = term_id
        self._id_to_term.append(term)
        return term_id

    def add_counts(self, counts: Mapping[str, int]) -> Dict[int, int]:
        """Map a term->count dict to an id->count dict, adding new terms
        in the order of ``counts``."""
        mapped = dict(zip(self.lookup(counts), counts.values()))
        if None in mapped:
            add = self.add
            return {add(term): count for term, count in counts.items()}
        return cast(Dict[int, int], mapped)

    def lookup(self, terms: Iterable[str]) -> Iterator[Optional[int]]:
        """The id of each term, ``None`` where unseen; adds nothing.

        >>> list(Vocabulary(["stock", "market"]).lookup(["market", "bond"]))
        [1, None]
        """
        return map(self._term_to_id.get, terms)

    def id(self, term: str) -> int:
        """Return the id of ``term``; raise ``KeyError`` if unseen."""
        return self._term_to_id[term]

    def get(self, term: str, default: int = -1) -> int:
        """Return the id of ``term`` or ``default`` if unseen."""
        return self._term_to_id.get(term, default)

    def term(self, term_id: int) -> str:
        """Return the term string for ``term_id``."""
        return self._id_to_term[term_id]

    def terms(self, start: int = 0, stop: Optional[int] = None) -> List[str]:
        """The term strings of ids ``start`` up to ``stop``, in id order."""
        return self._id_to_term[start:stop]

    def freeze(self) -> None:
        """Disallow further growth (useful for test fixtures)."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def __contains__(self, term: object) -> bool:
        return term in self._term_to_id

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_term)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vocabulary(size={len(self)}, frozen={self._frozen})"
