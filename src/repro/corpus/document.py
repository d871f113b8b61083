"""The :class:`Document` value object.

A document is immutable once constructed: its identity, acquisition time
(``T_i`` in the paper, in fractional days), term-count row ``f_ik``
(over integer term ids from a :class:`~repro.text.Vocabulary`) and
optional ground-truth topic label. Everything time-varying about a
document (weight ``dw_i``, probability ``Pr(d_i)``) lives in
:class:`~repro.forgetting.CorpusStatistics`, not here.

Every active document of the life span is held at once (and archives
hold every document of a stream), so the row is stored compactly: two
int32 arrays — term ids and counts, in the order they were given —
packed into immutable byte strings. :attr:`Document.term_ids` and
:attr:`Document.counts` are read-only numpy views of them;
:attr:`Document.term_counts` builds a fresh dict on each access, for
callers that want a mapping, and hot code reads the arrays instead.
"""

from __future__ import annotations

import struct
import sys
from operator import index
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .._typing import IntArray
from .._validation import require_finite

#: What a document's row may be given as: ``term_id -> f_ik``, or
#: ``(term_id, f_ik)`` pairs (a repeated id keeps its last count).
TermCounts = Union[Mapping[int, int], Iterable[Tuple[int, int]]]

_INT32_MIN = -(2 ** 31)
_INT32_MAX = 2 ** 31 - 1

#: The rows are packed in native order (``=``), which is little-endian
#: on every common host.
_LITTLE_ENDIAN = sys.byteorder == "little"


def check_identity(doc_id: object, timestamp: object) -> None:
    """Raise unless ``doc_id`` is a non-empty string and ``timestamp`` a
    finite number: the checks :class:`Document` makes of its fields."""
    if not isinstance(doc_id, str):
        raise TypeError(f"doc_id must be a string, got {doc_id!r}")
    if not doc_id:
        raise ValueError("doc_id must be a non-empty string")
    if not isinstance(timestamp, (int, float)):
        raise TypeError("timestamp must be a number (fractional days)")
    require_finite(f"timestamp of document {doc_id!r}", timestamp)


def _row_error(doc_id: str, term_counts: Mapping[Any, Any]) -> Exception:
    """The error naming the first entry that cannot be an int32 term id
    or count (a row ``struct.pack`` refused)."""
    for term_id, count in term_counts.items():
        for what, value in (("term id", term_id), ("count", count)):
            try:
                number = index(value)
            except TypeError:
                return TypeError(
                    f"{what} {value!r} in document {doc_id!r} is not an "
                    f"integer"
                )
            if not _INT32_MIN <= number <= _INT32_MAX:
                return ValueError(
                    f"{what} {number} in document {doc_id!r} is outside "
                    f"the int32 range"
                )
    return ValueError(f"malformed term counts in document {doc_id!r}")


def _pack_row(
    doc_id: str, term_counts: Mapping[Any, Any]
) -> Tuple[bytes, bytes]:
    """``(term ids, counts)`` as native int32 bytes in the mapping's
    order, zero counts dropped; every check runs in C unless the row
    holds a zero or is rejected."""
    n = len(term_counts)
    layout = f"={n}i"
    try:
        ids = struct.pack(layout, *term_counts)
        counts = struct.pack(layout, *term_counts.values())
    except struct.error:
        raise _row_error(doc_id, term_counts) from None
    if n and min(term_counts) < 0:
        raise ValueError(
            f"term id {min(term_counts)} in document {doc_id!r} is negative"
        )
    if n and min(term_counts.values()) <= 0:
        kept: Dict[int, int] = {}
        for term_id, count in term_counts.items():
            if count < 0:
                raise ValueError(
                    f"negative term count {count} for term {term_id} "
                    f"in document {doc_id!r}"
                )
            if count:
                kept[term_id] = count
        return _pack_row(doc_id, kept)
    return ids, counts


class Document:
    """An immutable timestamped document.

    Parameters
    ----------
    doc_id:
        Unique non-empty string identifier within a repository.
    timestamp:
        Acquisition time ``T_i`` in fractional days from the stream
        origin (day 0 = first day of the corpus); must be finite.
    term_counts:
        Mapping ``term_id -> frequency`` (``f_ik`` in the paper), or an
        iterable of ``(term_id, frequency)`` pairs. Ids and counts must
        be integers within int32 (``TypeError`` for a non-integral one,
        ``ValueError`` out of range), and neither may be negative (ids
        index every per-term array downstream); zero counts are
        dropped, and the order given is kept.
    topic_id:
        Optional ground-truth topic label used only for evaluation.
    source / title:
        Optional provenance metadata.

    Equality compares every field, the row as a mapping (the order of
    its terms does not matter).
    """

    __slots__ = ("doc_id", "timestamp", "topic_id", "source", "title",
                 "_ids", "_counts", "_length")

    doc_id: str
    timestamp: float
    topic_id: Optional[str]
    source: Optional[str]
    title: Optional[str]
    _ids: bytes
    _counts: bytes
    _length: int

    def __init__(
        self,
        doc_id: str,
        timestamp: float,
        term_counts: TermCounts,
        topic_id: Optional[str] = None,
        source: Optional[str] = None,
        title: Optional[str] = None,
    ) -> None:
        check_identity(doc_id, timestamp)
        if not isinstance(term_counts, Mapping):
            term_counts = dict(term_counts)
        ids, counts = _pack_row(doc_id, term_counts)
        init = object.__setattr__
        init(self, "doc_id", doc_id)
        init(self, "timestamp", timestamp)
        init(self, "topic_id", topic_id)
        init(self, "source", source)
        init(self, "title", title)
        init(self, "_ids", ids)
        init(self, "_counts", counts)
        init(self, "_length", sum(memoryview(counts).cast("i")))

    # -- immutability, copying, equality -----------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Document is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Document is immutable; cannot delete {name!r}")

    def __reduce__(self) -> Tuple[Any, ...]:
        # the slots cannot be restored through the frozen __setattr__,
        # so pickling and copying go back through the constructor
        return (Document, (self.doc_id, self.timestamp, self.term_counts,
                           self.topic_id, self.source, self.title))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return (
            self.doc_id == other.doc_id
            and self.timestamp == other.timestamp
            and self.topic_id == other.topic_id
            and self.source == other.source
            and self.title == other.title
            and self._length == other._length
            and (
                (self._ids == other._ids and self._counts == other._counts)
                or self.term_counts == other.term_counts
            )
        )

    def __repr__(self) -> str:
        return (
            f"Document(doc_id={self.doc_id!r}, timestamp={self.timestamp!r}, "
            f"term_counts={self.term_counts!r}, topic_id={self.topic_id!r}, "
            f"source={self.source!r}, title={self.title!r})"
        )

    # -- the row -------------------------------------------------------------

    @property
    def term_ids(self) -> IntArray:
        """The row's term ids (int32, read-only), in the order given."""
        return np.frombuffer(self._ids, dtype=np.int32)

    @property
    def counts(self) -> IntArray:
        """The row's counts ``f_ik`` (int32, read-only), aligned with
        :attr:`term_ids`."""
        return np.frombuffer(self._counts, dtype=np.int32)

    @property
    def row_bytes(self) -> bytes:
        """The row as little-endian int32 bytes: the term ids, then the
        counts (a format-version-3 record's ``row``, before base64)."""
        if _LITTLE_ENDIAN:
            return self._ids + self._counts
        return (self.term_ids.astype("<i4").tobytes()
                + self.counts.astype("<i4").tobytes())

    @property
    def term_counts(self) -> Dict[int, int]:
        """A fresh ``term_id -> f_ik`` dict in the row's order, built on
        each access; hot code reads :attr:`term_ids` and :attr:`counts`."""
        return dict(zip(memoryview(self._ids).cast("i"),
                        memoryview(self._counts).cast("i")))

    @property
    def length(self) -> int:
        """Total token count ``len_i = Σ_k f_ik`` (Eq. 15)."""
        return self._length

    @property
    def is_empty(self) -> bool:
        """True when the document has no terms after preprocessing."""
        return self._length == 0

    def term_probability(self, term_id: int) -> float:
        """``Pr(t_k | d_i) = f_ik / len_i`` (Eq. 8); 0 for empty docs."""
        if self._length == 0:
            return 0.0
        hits = np.flatnonzero(self.term_ids == term_id)
        if hits.size == 0:
            return 0.0
        return int(self.counts[hits[0]]) / self._length

    def __len__(self) -> int:
        return self._length


def stack_rows(
    docs: Sequence[Document],
) -> Tuple[IntArray, IntArray, IntArray]:
    """``(lens, term_ids, counts)`` of ``docs``' rows laid end to end:
    document ``i`` owns the next ``lens[i]`` entries of the two int32
    arrays, in its own order. One join per array, no per-term work."""
    ids: List[bytes] = [doc._ids for doc in docs]
    lens = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids)) // 4
    term_ids = np.frombuffer(b"".join(ids), dtype=np.int32)
    counts = np.frombuffer(
        b"".join([doc._counts for doc in docs]), dtype=np.int32
    )
    return lens, term_ids, counts
