"""The ``"columnar"`` array backend.

Stores document weights and term masses in flat numpy arrays with
interned term ids, so every maintenance step the ``"dict"`` oracle (the
paper's plain-Python store, kept with the tests) runs as an
interpreted per-entry loop becomes a handful of vectorised array
operations:

* **decay** (Eq. 27-28) — the dict oracle already keeps *term* masses
  under one lazy global scale factor; here the same trick is extended
  to the document weights: ``λ^Δτ`` multiplies two scalars instead of
  every entry, and each scale is folded back into its raw array before
  it underflows (same ``SCALE_FLOOR`` threshold, same
  ``statistics.scale_folds`` counter);
* **held term rows** — every active document's ``(term_id, count)``
  row, sorted by term once on insert, lives in one flat CSR store over
  the row slots. Insert and removal scatter-add and scatter-subtract
  the rows' term contributions with ``np.add.at``/``np.subtract.at``
  after a vectorised intern lookup, and :meth:`term_rows` hands a
  fit's window to the vectoriser as one gather, so no document's terms
  are re-read from its ``Document`` while it is active;
* **expiry scan** — one threshold mask over the weight array instead
  of a Python loop over every active document.

``tdw`` stays an eagerly-updated scalar with the exact per-document
add/subtract order of the dict oracle, so the two stores' ``tdw``
match bit-for-bit on identical histories; per-document weights and
term masses agree to float rounding (the property suite asserts 1e-9).

Term ids are interned to dense columns through :class:`TermIndex`
(``term_id -> column``, -1 when absent): a direct-index table while
ids are small dense integers, as vocabulary ids are, so one
fancy-indexing gather replaces a ``searchsorted`` per lookup, and a
sorted id array once they are not (a caller-built document may carry
any int32 id), so the index never costs more than a few words per
interned term. Removed documents leave holes in the row arrays and the
row store that are compacted away once they dominate.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..._typing import FloatArray, IntArray
from ...corpus.document import Document, stack_rows
from ...obs import NULL_RECORDER, Recorder
from .base import SCALE_FLOOR, TermRows

_MIN_CAPACITY = 64

#: The direct term-index table may hold at most this many slots per
#: interned term (8 bytes each); past that the index is a sorted array.
DENSE_SLACK = 16


class TermIndex:
    """``term_id -> column`` (-1 when absent) in memory proportional
    to the interned terms, not to the largest id.

    While the largest id stays within ``DENSE_SLACK`` slots per
    interned term it is a direct table, one gather per lookup. A larger
    id turns it, for good, into the ascending interned ids and their
    columns, one ``searchsorted`` per lookup.
    """

    __slots__ = ("_table", "_ids", "_cols")

    def __init__(self) -> None:
        # direct table while dense; None once sorted
        self._table: Optional[IntArray] = np.zeros(0, dtype=np.int64)
        self._ids = np.zeros(0, dtype=np.int64)
        self._cols = np.zeros(0, dtype=np.int64)

    @property
    def dense(self) -> bool:
        return self._table is not None

    def lookup(self, term_ids: IntArray) -> IntArray:
        """Column per term id; -1 where the term is not interned."""
        table = self._table
        if table is not None:
            capacity = table.size
            if capacity == 0 or term_ids.size == 0:
                return np.full(term_ids.shape, -1, dtype=np.int64)
            in_range = (term_ids >= 0) & (term_ids < capacity)
            if in_range.all():
                return table[term_ids]
            clipped = np.clip(term_ids, 0, capacity - 1)
            return np.where(in_range, table[clipped], -1)
        ids = self._ids
        if ids.size == 0 or term_ids.size == 0:
            return np.full(term_ids.shape, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(ids, term_ids), ids.size - 1)
        return np.where(ids[at] == term_ids, self._cols[at], -1)

    def add(self, missing: IntArray, n_terms: int) -> IntArray:
        """Intern the distinct ids of ``missing`` (none interned yet,
        repeats allowed) at columns ``n_terms, n_terms + 1, ...`` in
        ascending id order; returns those ids."""
        need = int(missing.max()) + 1
        table = self._table
        if table is not None and need > DENSE_SLACK * (n_terms + missing.size):
            # ids too sparse for a table: keep the interned ones sorted
            self._ids = np.flatnonzero(table >= 0).astype(np.int64)
            self._cols = table[self._ids]
            self._table = table = None
        if table is not None:
            if need > table.size:
                grown = np.full(max(_MIN_CAPACITY, 2 * table.size, need),
                                -1, dtype=np.int64)
                grown[:table.size] = table
                self._table = table = grown
            # dedupe via a presence mask over the (dense) id space —
            # cheaper than a sort over every occurrence, and yields the
            # same ascending id order
            seen = np.zeros(need, dtype=bool)
            seen[missing] = True
            new_terms = np.flatnonzero(seen).astype(np.int64)
            table[new_terms] = np.arange(
                n_terms, n_terms + new_terms.size, dtype=np.int64
            )
            return new_terms
        new_terms = np.unique(missing).astype(np.int64)
        ids = np.concatenate([self._ids, new_terms])
        cols = np.concatenate([self._cols, np.arange(
            n_terms, n_terms + new_terms.size, dtype=np.int64
        )])
        order = np.argsort(ids, kind="stable")
        self._ids, self._cols = ids[order], cols[order]
        return new_terms

    def copy(self) -> "TermIndex":
        other = TermIndex()
        other._table = None if self._table is None else self._table.copy()
        other._ids = self._ids.copy()
        other._cols = self._cols.copy()
        return other


class ColumnarStatisticsBackend:
    """Array-backed state store (numpy only, no scipy required)."""

    name: ClassVar[str] = "columnar"

    def __init__(self) -> None:
        self.recorder: Recorder = NULL_RECORDER
        self.tdw = 0.0
        # rows: one slot per inserted document, in insertion order;
        # removal blanks the slot (compacted when holes dominate)
        self._doc_row: Dict[str, int] = {}
        self._row_doc: List[Optional[str]] = []
        self._dw_raw = np.zeros(0, dtype=np.float64)
        self._active = np.zeros(0, dtype=bool)
        self._dw_scale = 1.0
        self._min_dw = math.inf
        # the held term rows: slot r owns components
        # _indptr[r]:_indptr[r + 1] of _terms (ascending) and _counts,
        # and _length[r] is its len_i; a removed slot keeps its run
        # until compaction. Rows are never rewritten, so a clone shares
        # _terms/_counts (not owning them) until it first inserts
        self._length = np.zeros(0, dtype=np.float64)
        self._indptr = np.zeros(1, dtype=np.int64)
        self._terms = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int32)
        self._store_owned = True
        # columns: one slot per interned term id
        self._mass_raw = np.zeros(0, dtype=np.float64)
        self._mass_scale = 1.0
        self._n_terms = 0
        self._col_term = np.zeros(0, dtype=np.int64)   # col -> term id
        self._index = TermIndex()                      # term id -> col

    # -- internal helpers --------------------------------------------------

    @property
    def _rows_used(self) -> int:
        return len(self._row_doc)

    def _grow_rows(self, need: int) -> None:
        capacity = self._dw_raw.size
        if need <= capacity:
            return
        new_capacity = max(_MIN_CAPACITY, 2 * capacity, need)
        for attr, dtype in (("_dw_raw", np.float64), ("_active", bool),
                            ("_length", np.float64)):
            fresh = np.zeros(new_capacity, dtype=dtype)
            fresh[:capacity] = getattr(self, attr)
            setattr(self, attr, fresh)
        indptr = np.zeros(new_capacity + 1, dtype=np.int64)
        indptr[:capacity + 1] = self._indptr
        self._indptr = indptr

    def _grow_store(self, used: int, need: int) -> None:
        """Room for ``need`` components, the first ``used`` of them
        kept, in a store this backend owns (a clone copies the one it
        shares on its first insert)."""
        capacity = self._terms.size
        if need <= capacity and self._store_owned:
            return
        if need > capacity:
            capacity = max(_MIN_CAPACITY, 2 * capacity, need)
        for attr in ("_terms", "_counts"):
            old = getattr(self, attr)
            fresh = np.zeros(capacity, dtype=old.dtype)
            fresh[:used] = old[:used]
            setattr(self, attr, fresh)
        self._store_owned = True

    def _grow_cols(self, need: int) -> None:
        capacity = self._mass_raw.size
        if need <= capacity:
            return
        new_capacity = max(_MIN_CAPACITY, 2 * capacity, need)
        for attr, dtype in (("_mass_raw", np.float64),
                            ("_col_term", np.int64)):
            fresh = np.zeros(new_capacity, dtype=dtype)
            fresh[:capacity] = getattr(self, attr)
            setattr(self, attr, fresh)

    def _lookup_cols(self, term_ids: IntArray) -> IntArray:
        """Column index per term id; -1 where the term is unknown."""
        return self._index.lookup(term_ids)

    def _intern(self, term_ids: IntArray) -> IntArray:
        """Column index per term id, allocating columns for new terms."""
        if term_ids.size == 0:
            return term_ids.astype(np.int64)
        cols = self._index.lookup(term_ids)
        missing = cols < 0
        if missing.any():
            start = self._n_terms
            new_terms = self._index.add(term_ids[missing], start)
            self._grow_cols(start + new_terms.size)
            self._col_term[start:start + new_terms.size] = new_terms
            self._n_terms += new_terms.size
            cols = self._index.lookup(term_ids)
        return cols

    def _reset_empty(self) -> None:
        """Clear float residue so an emptied corpus is exactly empty."""
        self.tdw = 0.0
        self._doc_row.clear()
        self._row_doc.clear()
        self._dw_raw = np.zeros(0, dtype=np.float64)
        self._active = np.zeros(0, dtype=bool)
        self._dw_scale = 1.0
        self._min_dw = math.inf
        self._length = np.zeros(0, dtype=np.float64)
        self._indptr = np.zeros(1, dtype=np.int64)
        self._terms = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int32)
        self._store_owned = True
        self._mass_raw = np.zeros(0, dtype=np.float64)
        self._mass_scale = 1.0
        self._n_terms = 0
        self._col_term = np.zeros(0, dtype=np.int64)
        self._index = TermIndex()

    def _gather(self, slots: IntArray) -> Tuple[IntArray, IntArray]:
        """``(lens, index)``: the held row length of each of ``slots``
        and the store positions of their components, row after row."""
        starts = self._indptr[slots]
        lens = self._indptr[slots + 1] - starts
        offsets = np.cumsum(lens) - lens
        index = (np.repeat(starts - offsets, lens)
                 + np.arange(int(lens.sum()), dtype=np.int64))
        return lens, index

    def _maybe_compact_rows(self) -> None:
        used = self._rows_used
        if used < _MIN_CAPACITY or 2 * len(self._doc_row) >= used:
            return
        keep = np.flatnonzero(self._active[:used])
        survivors = [self._row_doc[row] for row in keep.tolist()]
        lens, index = self._gather(keep)
        capacity = max(_MIN_CAPACITY, 2 * keep.size)
        for attr, values in (("_dw_raw", self._dw_raw[keep]),
                             ("_length", self._length[keep])):
            fresh = np.zeros(capacity, dtype=np.float64)
            fresh[:keep.size] = values
            setattr(self, attr, fresh)
        self._active = np.zeros(capacity, dtype=bool)
        self._active[:keep.size] = True
        self._indptr = np.zeros(capacity + 1, dtype=np.int64)
        np.cumsum(lens, out=self._indptr[1:keep.size + 1])
        store = max(_MIN_CAPACITY, 2 * index.size)
        for attr in ("_terms", "_counts"):
            old = getattr(self, attr)
            fresh = np.zeros(store, dtype=old.dtype)
            fresh[:index.size] = old[index]
            setattr(self, attr, fresh)
        self._store_owned = True
        self._row_doc = survivors
        # active rows always hold a doc id; the None filter only narrows
        self._doc_row = {
            doc_id: row for row, doc_id in enumerate(survivors)
            if doc_id is not None
        }

    def _contributions(
        self, slots: IntArray, weights: FloatArray
    ) -> Tuple[IntArray, FloatArray]:
        """``(term_ids, values)`` of the held rows of ``slots``, row
        after row: each count times ``weight / (scale · len)`` (Eq. 10's
        numerator under the lazy mass scale), elementwise — the exact
        grouping of the dict reference's per-term update. Every term
        occurs once per row, so a scatter over them adds each term's
        contributions in slot order, whatever the order within rows."""
        lens, index = self._gather(slots)
        lengths = self._length[slots]
        inv_scales = weights / (
            self._mass_scale * np.where(lengths > 0.0, lengths, 1.0)
        )
        return (self._terms[index],
                self._counts[index] * np.repeat(inv_scales, lens))

    # -- mutations ---------------------------------------------------------

    def decay(self, factor: float) -> None:
        if factor == 1.0:
            return
        self.tdw *= factor
        self._min_dw *= factor
        used = self._rows_used
        if self._dw_scale * factor < SCALE_FLOOR:
            np.multiply(
                self._dw_raw[:used], self._dw_scale * factor,
                out=self._dw_raw[:used],
            )
            self._dw_scale = 1.0
            if self.recorder.enabled:
                self.recorder.counter("statistics.scale_folds")
        else:
            self._dw_scale *= factor
        if self._mass_scale * factor < SCALE_FLOOR:
            n = self._n_terms
            np.multiply(
                self._mass_raw[:n], self._mass_scale * factor,
                out=self._mass_raw[:n],
            )
            self._mass_scale = 1.0
            if self.recorder.enabled:
                self.recorder.counter("statistics.scale_folds")
        else:
            self._mass_scale *= factor

    def insert_batch(
        self, entries: Sequence[Tuple[Document, float]]
    ) -> None:
        if not entries:
            return
        start = self._rows_used
        n = len(entries)
        self._grow_rows(start + n)
        weights = np.fromiter(
            (weight for _, weight in entries), dtype=np.float64, count=n
        )
        docs = [doc for doc, _ in entries]
        self._dw_raw[start:start + n] = weights / self._dw_scale
        self._active[start:start + n] = True
        doc_ids = list(map(attrgetter("doc_id"), docs))
        self._row_doc.extend(doc_ids)
        self._doc_row.update(zip(doc_ids, range(start, start + n)))
        # scalar adds in document order keep tdw bit-identical to the
        # dict reference; min is exact, so the batch min is too
        tdw = self.tdw
        for weight in weights.tolist():
            tdw += weight
        self.tdw = tdw
        lowest = float(weights.min())
        if lowest < self._min_dw:
            self._min_dw = lowest
        # hold the batch's term rows, each sorted by term once here
        lens, terms, values = stack_rows(docs)
        total = terms.size
        # one key per component, unique within the batch: (row, term)
        # in row-major order (ids are small, as the intern table is
        # sized by the largest)
        span = int(terms.max()) + 1 if total else 1
        order = np.argsort(
            np.repeat(np.arange(n, dtype=np.int64) * span, lens) + terms
        )
        base = int(self._indptr[start])
        self._grow_store(base, base + total)
        self._terms[base:base + total] = terms[order]
        self._counts[base:base + total] = values[order]
        np.cumsum(lens, out=self._indptr[start + 1:start + n + 1])
        self._indptr[start + 1:start + n + 1] += base
        self._length[start:start + n] = np.fromiter(
            map(attrgetter("length"), docs), dtype=np.float64, count=n
        )
        if total:
            all_terms, all_values = self._contributions(
                np.arange(start, start + n, dtype=np.int64), weights
            )
            cols = self._intern(all_terms)
            np.add.at(self._mass_raw, cols, all_values)

    def remove_batch(self, docs: Sequence[Document]) -> bool:
        """Reverse many documents in one pass; True if ``tdw`` clamped.

        The expiry path removes whole cohorts at once, so the term-mass
        reversal is batched into a single scatter-subtract. ``tdw``
        keeps the per-document scalar subtraction order of the dict
        reference.
        """
        if not docs:
            return False
        pop_row = self._doc_row.pop
        rows = [pop_row(doc.doc_id) for doc in docs]
        row_arr = np.asarray(rows, dtype=np.int64)
        # raw * scale elementwise, the dict reference's weights exactly
        weights = self._dw_raw[row_arr] * self._dw_scale
        row_doc = self._row_doc
        for row in rows:
            row_doc[row] = None
        self._dw_raw[row_arr] = 0.0
        self._active[row_arr] = False
        # scalar subtractions in document order keep tdw (and the
        # clamp points) bit-identical to one removal at a time
        clamped = False
        tdw = self.tdw
        for weight in weights.tolist():
            tdw -= weight
            if tdw < 0.0:
                tdw = 0.0
                clamped = True
        self.tdw = tdw
        all_terms, all_values = self._contributions(row_arr, weights)
        if all_terms.size:
            cols = self._lookup_cols(all_terms)
            known = cols >= 0
            if not known.all():
                cols = cols[known]
                all_values = all_values[known]
            np.subtract.at(self._mass_raw, cols, all_values)
            # the dict reference deletes masses driven <= 0 by float
            # residue; zeroing the column is the array equivalent
            residues = self._mass_raw[cols]
            negative = residues <= 0.0
            if negative.any():
                self._mass_raw[cols[negative]] = 0.0
        if not self._doc_row:
            self._reset_empty()
        else:
            self._maybe_compact_rows()
        return clamped

    def expired_doc_ids(self, epsilon: float) -> List[str]:
        used = self._rows_used
        if used == 0:
            return []
        weights = self._dw_raw[:used] * self._dw_scale
        mask = self._active[:used] & (
            (weights == 0.0) | (weights < epsilon)
        )
        ids = (self._row_doc[row] for row in np.flatnonzero(mask).tolist())
        return [doc_id for doc_id in ids if doc_id is not None]

    # -- queries -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._doc_row)

    def dw(self, doc_id: str) -> float:
        row = self._doc_row[doc_id]
        return float(self._dw_raw[row]) * self._dw_scale

    def weights(self) -> Dict[str, float]:
        scale = self._dw_scale
        raw = self._dw_raw
        return {
            doc_id: float(raw[row]) * scale
            for doc_id, row in self._doc_row.items()
        }

    @property
    def min_weight_bound(self) -> float:
        return self._min_dw

    def term_rows(self, doc_ids: Sequence[str]) -> TermRows:
        slots = np.fromiter(map(self._doc_row.__getitem__, doc_ids),
                            dtype=np.int64, count=len(doc_ids))
        lens, index = self._gather(slots)
        indptr = np.zeros(slots.size + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        return TermRows(
            indptr=indptr,
            term_ids=self._terms[index],
            counts=self._counts[index],
            weights=self._dw_raw[slots] * self._dw_scale,
            lengths=self._length[slots],
        )

    def term_mass(self, term_id: int) -> float:
        cols = self._lookup_cols(np.asarray([term_id], dtype=np.int64))
        col = int(cols[0])
        if col < 0:
            return 0.0
        raw = float(self._mass_raw[col])
        if raw <= 0.0:
            return 0.0
        return raw * self._mass_scale

    def term_mass_array(self, term_ids: IntArray) -> FloatArray:
        if self._n_terms == 0:
            return np.zeros(term_ids.shape, dtype=np.float64)
        cols = self._lookup_cols(term_ids)
        masses = np.where(cols >= 0, self._mass_raw[np.maximum(cols, 0)],
                          0.0)
        np.maximum(masses, 0.0, out=masses)
        return masses * self._mass_scale

    def term_ids(self) -> List[int]:
        n = self._n_terms
        positive = self._mass_raw[:n] > 0.0
        ids: List[int] = self._col_term[:n][positive].tolist()
        return ids

    def vocabulary_size(self) -> int:
        n = self._n_terms
        return int(np.count_nonzero(self._mass_raw[:n] > 0.0))

    def clone(self) -> "ColumnarStatisticsBackend":
        other = ColumnarStatisticsBackend()
        other.recorder = self.recorder
        other.tdw = self.tdw
        other._doc_row = dict(self._doc_row)
        other._row_doc = list(self._row_doc)
        other._dw_raw = self._dw_raw.copy()
        other._active = self._active.copy()
        other._dw_scale = self._dw_scale
        other._min_dw = self._min_dw
        other._length = self._length.copy()
        other._indptr = self._indptr.copy()
        # shared, not copied: this backend only appends past the rows
        # the clone can see, and the clone copies before it appends
        other._terms = self._terms
        other._counts = self._counts
        other._store_owned = False
        other._mass_raw = self._mass_raw.copy()
        other._mass_scale = self._mass_scale
        other._n_terms = self._n_terms
        other._col_term = self._col_term.copy()
        other._index = self._index.copy()
        return other
