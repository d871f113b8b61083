"""CSR-backed weighted-vector batches.

:class:`WeightedVectorArrays` holds the weighted vectors ``w⃗_i`` that
:meth:`~repro.vectors.tfidf.NoveltyTfidfWeighter.weighted_arrays`
builds: one flat ``(indptr, term_ids, data)`` CSR layout over the whole
batch. It is what every K-means fit vectorises into, and the only input
engines accept: they consume the flat arrays directly, with no per-term
Python loop between vectorisation and the engine's matrix build.

Inside a fit a document is its row: engines, outlier rescue and split
repair all speak row numbers, and ``doc_ids`` turns them back into ids
once, when the result is built. The batch therefore keeps no
id-to-row index. Rescue and split repair read whole clusters' rows on
most passes, so they work on the flat arrays too
(:meth:`~WeightedVectorArrays.gather` and
:meth:`~WeightedVectorArrays.row` over the batch's compact
:meth:`~WeightedVectorArrays.columns`) and never build a dict.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._typing import FloatArray, IntArray

#: Id values per entry up to which :func:`compact_columns` uses a
#: presence mask over the id space rather than a sort.
DENSE_SLACK = 16


def compact_columns(term_ids: IntArray) -> Tuple[IntArray, IntArray]:
    """``(terms, cols)``: the distinct (non-negative) ids of
    ``term_ids`` ascending, and the index in ``terms`` of every entry —
    what ``np.unique(term_ids, return_inverse=True)`` returns. While
    the ids are dense (vocabulary ids are small dense integers) it
    comes from one presence mask over the id space instead of a sort
    over the entries; ids spread wider than ``DENSE_SLACK`` id values
    per entry are sorted, so memory follows the entries, not the
    largest id."""
    if term_ids.size == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    span = int(term_ids.max()) + 1
    if span > DENSE_SLACK * term_ids.size:
        terms, cols = np.unique(term_ids, return_inverse=True)
        return (terms.astype(np.int64, copy=False),
                cols.astype(np.int64, copy=False).reshape(term_ids.shape))
    seen = np.zeros(span, dtype=bool)
    seen[term_ids] = True
    rank = np.cumsum(seen, dtype=np.int64) - 1
    return np.flatnonzero(seen).astype(np.int64, copy=False), rank[term_ids]


class WeightedVectorArrays:
    """Batch of weighted document vectors in one CSR layout.

    Parameters
    ----------
    doc_ids:
        Row order — ``doc_ids[i]`` owns ``term_ids[indptr[i]:indptr[i+1]]``
        and the matching ``data`` slice.
    indptr:
        int64 array of ``len(doc_ids) + 1`` row boundaries.
    term_ids:
        int64 vocabulary term ids per stored component, ascending within
        each row (the statistics store holds rows that way, and engines
        take the rows as their CSR rows).
    data:
        float64 component values (never 0.0 — zero components are
        dropped at construction).
    columns:
        Optional precomputed :meth:`columns` (the vectoriser already
        has them from its idf lookup); computed on first use otherwise.
    """

    __slots__ = ("doc_ids", "indptr", "term_ids", "data", "_columns",
                 "_self_dots")

    def __init__(
        self,
        doc_ids: Sequence[str],
        indptr: IntArray,
        term_ids: IntArray,
        data: FloatArray,
        columns: Optional[Tuple[IntArray, IntArray]] = None,
    ) -> None:
        self.doc_ids: List[str] = list(doc_ids)
        self.indptr = indptr
        self.term_ids = term_ids
        self.data = data
        self._columns = columns
        self._self_dots: Optional[FloatArray] = None

    def __len__(self) -> int:
        return len(self.doc_ids)

    # -- array access ----------------------------------------------------

    def csr_parts(
        self,
    ) -> Tuple[List[str], IntArray, IntArray, FloatArray]:
        """``(doc_ids, indptr, term_ids, data)`` in one call."""
        return self.doc_ids, self.indptr, self.term_ids, self.data

    def columns(self) -> Tuple[IntArray, IntArray]:
        """``(terms, cols)``: the batch's distinct term ids, ascending,
        which number its compact columns, and the column of every stored
        component. Computed once per batch."""
        if self._columns is None:
            self._columns = compact_columns(self.term_ids)
        return self._columns

    def self_similarities(self) -> FloatArray:
        """``w⃗_d · w⃗_d`` per row (the Eq. 23 summands), summed in
        stored order. Computed once."""
        if self._self_dots is None:
            n = len(self.doc_ids)
            owner = np.repeat(np.arange(n, dtype=np.int64),
                              np.diff(self.indptr))
            self._self_dots = np.bincount(
                owner, weights=self.data * self.data, minlength=n
            ).astype(np.float64, copy=False)
        return self._self_dots

    def row(self, row: int) -> Tuple[IntArray, FloatArray]:
        """``(cols, data)`` of one row's stored components."""
        lo = int(self.indptr[row])
        hi = int(self.indptr[row + 1])
        return self.columns()[1][lo:hi], self.data[lo:hi]

    def gather(
        self, rows: IntArray
    ) -> Tuple[IntArray, IntArray, FloatArray]:
        """``(owner, cols, data)`` of the stored components of ``rows``,
        row after row in stored order; ``owner[i]`` is the position in
        ``rows`` of the row component ``i`` belongs to."""
        starts = self.indptr[rows]
        lens = self.indptr[rows + 1] - starts
        total = int(lens.sum())
        offsets = np.cumsum(lens) - lens
        index = (np.repeat(starts - offsets, lens)
                 + np.arange(total, dtype=np.int64))
        owner = np.repeat(np.arange(rows.size, dtype=np.int64), lens)
        return owner, self.columns()[1][index], self.data[index]
