"""Term vocabulary: a bidirectional term <-> integer-id mapping.

Every downstream structure (sparse vectors, statistics, cluster
representatives) keys terms by integer id; this class owns the mapping.
Ids are dense, assigned in first-seen order, and never reused — which is
what the incremental statistics update of Section 5.1 of the paper
requires ("additional terms incorporated by the insertion of documents
``t_{n+1} .. t_{n+n'}``").
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional

from ..exceptions import VocabularyFrozenError


class _TermIds(Dict[str, int]):
    """The term -> id dict. Indexing it with an unseen term interns
    that term: it gets the next id and joins ``terms``, the id -> term
    list. ``get`` and ``in`` add nothing."""

    __slots__ = ("terms", "frozen")

    def __init__(self) -> None:
        super().__init__()
        self.terms: List[str] = []
        self.frozen = False

    def __missing__(self, term: str) -> int:
        if self.frozen:
            raise VocabularyFrozenError(
                f"cannot add term {term!r}: vocabulary is frozen"
            )
        term_id = self[term] = len(self.terms)
        self.terms.append(term)
        return term_id


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

    __slots__ = ("_term_to_id", "_id_to_term")

    def __init__(self, terms: Iterable[str] = ()) -> None:
        self._term_to_id = _TermIds()
        self._id_to_term = self._term_to_id.terms
        for term in terms:
            self.add(term)

    def add(self, term: str) -> int:
        """Return the id of ``term``, assigning a new id if unseen."""
        return self._term_to_id[term]

    def add_counts(self, counts: Mapping[str, int]) -> Dict[int, int]:
        """Map a term->count dict to an id->count dict, adding new terms
        in the order of ``counts``.

        The row is mapped in C, one ``dict`` lookup per term; only an
        unseen term costs a Python call, which interns it, so a row's
        new terms get the ids one :meth:`add` per term, in the row's
        order, would give. A frozen vocabulary raises
        :class:`~repro.exceptions.VocabularyFrozenError` at a row's
        first unseen term, having added nothing.

        >>> vocab = Vocabulary(["dog"])
        >>> vocab.add_counts({"eel": 4, "dog": 1, "ant": 2})
        {1: 4, 0: 1, 2: 2}
        """
        return dict(zip(map(self._term_to_id.__getitem__, counts),
                        counts.values()))

    def lookup(self, terms: Iterable[str]) -> Iterator[Optional[int]]:
        """The id of each term, ``None`` where unseen; adds nothing.

        >>> list(Vocabulary(["stock", "market"]).lookup(["market", "bond"]))
        [1, None]
        """
        return map(self._term_to_id.get, terms)

    def id(self, term: str) -> int:
        """Return the id of ``term``; raise ``KeyError`` if unseen."""
        term_id = self._term_to_id.get(term)
        if term_id is None:
            raise KeyError(term)
        return term_id

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
        self._term_to_id.frozen = True

    @property
    def frozen(self) -> bool:
        return self._term_to_id.frozen

    def __contains__(self, term: object) -> bool:
        return term in self._term_to_id

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_term)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vocabulary(size={len(self)}, frozen={self.frozen})"
