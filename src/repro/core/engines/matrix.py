"""Vectorised engine: one CSR matrix, assignment sweeps by matmul.

The assignment pass (Section 4.3 step 1) is the hot path of the
extended K-means: for every document it needs ``cr_sim(C_p, d_q) =
c⃗_p · w⃗_q`` against every cluster representative (Eq. 26). The
paper's reference loop (kept with the tests as the ``"dense"`` oracle)
answers that with one gather per document; this engine batches the
*whole sweep*:

* all weighted document vectors live in one CSR matrix ``X`` (N×V),
  held as three arrays (``indptr``, ``indices``, ``data``) in the
  layout the vectoriser built (rows already hold their terms
  ascending), with cached self-similarities ``w⃗_d·w⃗_d`` (the Eq. 23
  summands, which already fold in the ``Pr(d)/len_d`` novelty weights
  of Eq. 12-16),
* cluster representatives are dense accumulator columns ``Rᵀ`` (V×K,
  Eq. 19-20), the layout the sweep's product reads without a copy; the
  warm start (Section 5.2 step 3) loads them in bulk with one
  ``np.bincount`` over the members' entries of ``X``, summed as the
  one-hot assignment matrix times ``X`` would sum them
  (:meth:`MatrixEngine.load`),
* per block of documents the representative dot products arrive as one
  sparse-dense product ``S = X_blk · Rᵀ``, and the sweep's own
  membership moves are replayed into ``S`` exactly from rows of the
  intra-block Gram matrix ``X_blk · X_blkᵀ`` (when document j
  left/joined cluster p, the later rows' similarity to p changes by
  ∓``w⃗_i·w⃗_j``). Only movers need their Gram row, and a mover at
  block position ``i`` reads only its entries right of ``i``, so only
  those are computed; the block keeps each row it pays for across
  passes. Every sparse product of the sweep is one call of scipy's own
  CSR × dense kernel (:func:`_csr_dot`, the routine a scipy sparse
  matrix's ``@`` runs) on views of ``X``'s arrays: no sparse matrix
  object is built, sliced or dispatched per block or per mover,
* a block's moves reach ``Rᵀ`` as one T×K ``np.bincount`` of the
  movers' entries, added in one dense add (:meth:`_apply_moves`),
* the Eq. 25-26 gain of document q against cluster p is affine in
  ``cr_sim(C_p, d_q)``, so the K gains of a window of documents are one
  fused multiply-add ``a ⊙ S + b`` over incrementally maintained
  coefficient vectors instead of the full Eq. 24 recomputation,
* each document is decided before anything moves: a member is scored
  against its own cluster with its removal-adjusted gain, and state
  changes only for a net mover. Decisions ahead of a mover do not
  depend on each other, and a move changes only its old and new
  clusters, so the gain window survives it: the sweep re-scores those
  two rows of the window and the own-cluster gains of the later
  members of those two clusters, and reads every other decision from
  the window as it stands. A stationary document leaves ``cr_sim``,
  ``ss``, ``S`` and the representatives untouched, however it was
  decided, so the output does not depend on the window's length
  (``SPECULATE_WINDOW``).

The decisions are the reference recurrence's — same gains, same order
of membership moves — so assignments match the dense oracle. ``G``
agrees to float summation order: the oracle removes and re-adds a
stationary member, a round trip of its aggregates through rounding
that this engine skips.

Requires :mod:`scipy`, a declared dependency of the package, for its
CSR kernel; construction fails with a clear message when it is
missing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, List, Optional, Set, Tuple

import numpy as np

from ..._typing import BoolArray, FloatArray, IntArray
from ...exceptions import ConfigurationError
from ...vectors.arrays import WeightedVectorArrays
from .base import (
    NO_GAIN,
    EngineView,
    affine_gain_coefficients,
    best_affine_gain,
)

# scipy's compiled sparse routines, the CSR kernels of _csr_dot; typed
# Any rather than a module so both the ImportError fallback and the
# attribute accesses below type-check with or without scipy stubs
_sp: Any = None
try:  # pragma: no cover - exercised implicitly on import
    from scipy.sparse import _sparsetools as _scipy_sparsetools
except ImportError:  # pragma: no cover - scipy is present in CI/dev envs
    pass
else:
    _sp = _scipy_sparsetools

#: Documents per sweep block: large enough to amortise the two matmuls,
#: small enough that the b×b Gram matrix stays cache-resident.
DEFAULT_BLOCK_SIZE = 256

#: Gram rows computed per product when paying in bulk: each costs a
#: dense V-long operand column, so this bounds the product's scratch.
GRAM_BULK_ROWS = 32

#: Length of the live gain window: the documents decided at once. It
#: bounds the re-scoring a move costs.
SPECULATE_WINDOW = 64


@dataclass
class SweepCounts:
    """What the assignment sweeps did, summed over blocks: every swept
    document is decided either by the vectorised window or one by one,
    a Gram row is paid either one by one or in bulk, and each paid row
    computes some of its entries."""

    #: Documents decided by the vectorised gain window.
    window_docs: int = 0
    #: Documents decided one at a time.
    sequential_docs: int = 0
    #: Net movers: documents that left or changed cluster.
    movers: int = 0
    #: Window re-scorings after a move.
    window_patches: int = 0
    #: Gram rows paid one mat-vec at a time.
    gram_rows_single: int = 0
    #: Gram rows paid by one product over many rows.
    gram_rows_bulk: int = 0
    #: Gram entries computed, one by one and in bulk: each row's
    #: entries right of its own column.
    gram_entries: int = 0

    def tags(self) -> Dict[str, int]:
        """The counts as span tags."""
        return {field.name: getattr(self, field.name)
                for field in fields(self)}


def _row_dots(indptr: IntArray, data: FloatArray) -> FloatArray:
    """``x⃗_r · x⃗_r`` of every CSR row, bit-equal to ``np.dot`` of the
    row on its own (the dense oracle's self-similarity).

    ``np.dot`` of two vectors is one BLAS dot whose rounding depends on
    the vector's length, so rows are grouped by length and each group
    is one stacked ``matmul`` of row times column, which numpy answers
    with that same dot per row. The loop runs over distinct lengths,
    not over rows.
    """
    lens = np.diff(indptr)
    out = np.zeros(lens.size, dtype=np.float64)
    if lens.size == 0:
        return out
    order = np.argsort(lens, kind="stable")
    sorted_lens = lens[order]
    cuts = (np.flatnonzero(np.diff(sorted_lens)) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [lens.size]):
        length = int(sorted_lens[lo])
        if length == 0:
            continue
        rows = order[lo:hi]
        group = data[indptr[rows][:, None] + np.arange(length)]
        out[rows] = np.matmul(group[:, None, :], group[:, :, None]).ravel()
    return out


def _csr_dot(
    indptr: IntArray, indices: IntArray, data: FloatArray, dense: FloatArray
) -> FloatArray:
    """``A · dense`` for the CSR rows ``A`` of ``indptr``, ``indices`` and
    ``data``, by the kernel a scipy CSR matrix's ``@`` dispatches to,
    so bit for bit what that product gives: a 1-D or one-column
    ``dense`` takes ``csr_matvec``, a wider one ``csr_matvecs``, and
    each output entry sums its row's products in stored order from
    zero.

    ``indptr`` need not start at 0: its offsets index ``indices`` and
    ``data`` directly, so a run of rows of a larger matrix is a slice of
    its ``indptr`` over its whole ``indices`` and ``data``, with no copy.
    ``indptr`` and ``indices`` should share one integer dtype (the
    kernel casts, and so copies, otherwise).
    """
    n_rows = indptr.size - 1
    n_cols = dense.shape[0]
    if dense.ndim == 1 or dense.shape[1] == 1:
        out = np.zeros(n_rows, dtype=np.float64)
        _sp.csr_matvec(
            n_rows, n_cols, indptr, indices, data, dense.ravel(), out
        )
        return out if dense.ndim == 1 else out.reshape(n_rows, 1)
    n_vecs = dense.shape[1]
    out = np.zeros((n_rows, n_vecs), dtype=np.float64)
    _sp.csr_matvecs(
        n_rows, n_cols, n_vecs, indptr, indices, data, dense.ravel(),
        out.ravel(),
    )
    return out


def _entries(indptr: IntArray, rows: IntArray) -> Tuple[IntArray, IntArray]:
    """Positions of the CSR entries of ``rows``, row after row, and the
    length of each row."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    total = int(lens.sum())
    # each entry's offset within its row, plus its row's start
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return shift + np.arange(total, dtype=shift.dtype), lens


def _decide(
    G: FloatArray, current: IntArray, live: Optional[BoolArray]
) -> Tuple[IntArray, FloatArray, BoolArray]:
    """Decide the documents of the columns of a gain window ``G``
    (K × m) at once: each one's best cluster (ties to the lowest) and
    gain, and whether it moves — whether where it ends up (its best
    cluster when that gains, else nowhere; nowhere for an empty vector,
    ``live`` False) differs from ``current``, its cluster or -1."""
    best = G.argmax(0)
    gain = G[best, np.arange(G.shape[1])]
    join = gain > 0.0
    if live is not None:
        join &= live
    moves: BoolArray = np.where(join, best, -1) != current
    return best, gain, moves


def _own_gains(
    criterion: str,
    n1: IntArray,
    crpp1: FloatArray,
    ss1: FloatArray,
    dprime: FloatArray,
) -> FloatArray:
    """:meth:`MatrixEngine._own_gain` over many members at once, bit for
    bit: ``n1``, ``crpp1`` and ``ss1`` are each member's cluster's size,
    ``cr_sim(C_p, C_p)`` and ``ss`` after its removal, ``dprime`` its
    ``cr_sim`` with what remains."""
    if criterion == "g":
        a_ = 2.0 / np.maximum(n1, 1)
        b_ = -(crpp1 - ss1) / np.maximum(n1 * (n1 - 1), 1)
        gains: FloatArray = np.where(
            n1 <= 0, 0.0,
            np.where(n1 == 1, 2.0 * dprime, a_ * dprime + b_),
        )
        return gains
    diff = crpp1 - ss1
    d1 = np.maximum(n1 * (n1 + 1), 1)
    a_ = 2.0 / d1
    avg_cur = np.where(n1 > 1, diff / np.maximum(n1 * (n1 - 1), 1), 0.0)
    b_ = diff / d1 - avg_cur
    gains = np.where(n1 <= 0, 0.0, a_ * dprime + b_)
    return gains


class _Block:
    """One sweep block: its rows, its rows ``Xb`` of ``X`` as CSR arrays
    (``indptr`` with one offset per row and one past the last, into
    ``indices`` and ``data``) and the Gram rows ``Xb · Xbᵀ`` computed so
    far.

    A block of consecutive rows holds views of ``X``'s own arrays: a
    slice of its ``indptr`` over its whole ``indices`` and ``data``.
    Any other row set gathers its rows' entries into arrays of its own.

    A Gram row is paid only for a row that moves, or that the block's
    entry state says will: the sweep replays a mover's Gram row into the
    later rows' similarities, and a row that stays where it is needs
    none. The replay of row ``i`` reads only its entries right of column
    ``i``, so ``have[i]`` says that ``gram[i, i+1:]`` holds them; each
    is bit-equal to that entry of the full product. Block positions are
    fixed for the block's life, so a row kept once serves every later
    pass.
    """

    __slots__ = ("rows", "indptr", "indices", "data", "n_terms", "gram",
                 "have")

    def __init__(
        self,
        rows: IntArray,
        indptr: IntArray,
        indices: IntArray,
        data: FloatArray,
        n_terms: int,
    ) -> None:
        self.rows = rows.copy()
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.n_terms = n_terms
        self.gram: FloatArray = np.empty((rows.size, rows.size),
                                         dtype=np.float64)
        self.have: BoolArray = np.zeros(rows.size, dtype=bool)

    def fill(self, positions: IntArray) -> Tuple[int, int]:
        """Compute the missing Gram rows of ``positions`` (ascending), a
        few at a time, as the block rows right of the chunk's first
        position times a dense operand ``D`` holding the chunk's rows as
        columns; returns how many rows and entries were computed.

        Each entry of that product sums its row's products in ascending
        term order, as the sparse ``Xb · Xbᵀ`` does, plus exact zeros,
        so the entries are bit-equal to the full product's, and no
        transpose of the block is built.
        """
        todo = positions[~self.have[positions]]
        indptr, indices, data = self.indptr, self.indices, self.data
        entries = 0
        for lo in range(0, todo.size, GRAM_BULK_ROWS):
            chunk = todo[lo:lo + GRAM_BULK_ROWS]
            first = int(chunk[0]) + 1
            at, lens = _entries(indptr, chunk)
            D = np.zeros((self.n_terms, chunk.size), dtype=np.float64)
            D[indices[at], np.repeat(np.arange(chunk.size), lens)] = (
                data[at]
            )
            part = _csr_dot(indptr[first:], indices, data, D)
            self.gram[chunk, first:] = part.T
            entries += part.size
        self.have[todo] = True
        return int(todo.size), entries


class MatrixEngine:
    """CSR document matrix + dense representatives, blockwise sweeps.

    All per-document state is an array over the batch's rows: the
    cluster holding each row (``-1`` when unassigned), its
    self-similarity, whether its vector is empty, and the stamp of its
    last append. A cluster's members are its rows in stamp order, which
    is the order the dense oracle's member dicts keep.

    ``sweep_counts`` is ``None`` until a caller sets it to a
    :class:`SweepCounts`; the sweeps then add what they did to it.
    """

    name: ClassVar[str] = "matrix"

    def __init__(
        self,
        k: int,
        vectors: WeightedVectorArrays,
        criterion: str,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if _sp is None:
            raise ConfigurationError(
                "the 'matrix' engine (the default) requires scipy, a "
                "declared dependency of repro that is not installed; "
                "install it with `pip install scipy` (or reinstall "
                "repro with its dependencies)"
            )
        self.k = int(k)
        self._criterion = criterion
        self._block_size = max(1, int(block_size))
        self.sweep_counts: Optional[SweepCounts] = None

        # the vectoriser's flat arrays and compact column map are
        # already the matrix layout: rows hold their terms ascending
        indptr = np.asarray(vectors.indptr, dtype=np.int64)
        term_ids, cols = vectors.columns()
        n_docs = len(vectors)
        lens = np.diff(indptr)
        self._term_ids = np.asarray(term_ids, dtype=np.int64)
        n_terms = max(1, len(term_ids))
        # X (n_docs × n_terms) as CSR arrays with one index dtype for
        # the kernel: int32 while every offset and column fits, as
        # scipy's own sparse matrices choose, which halves the index
        # traffic of the sweep's products and temporaries
        index_dtype = (
            np.int32 if max(int(indptr[-1]), n_terms) < 2**31 else np.int64
        )
        self._n_terms = n_terms
        self._indptr = indptr.astype(index_dtype)
        self._indices = np.asarray(cols, dtype=index_dtype)
        self._data = np.asarray(vectors.data, dtype=np.float64)
        self._w2 = _row_dots(indptr, vectors.data)
        # exactly the empty-vector rows decide (-1, NO_GAIN); gating on
        # the stored length rather than `w2 <= 0.0` keeps parity with
        # the dense oracle for non-empty vectors whose self-similarity
        # underflows to 0.0
        self._empty: BoolArray = lens == 0
        self._assigned = np.full(n_docs, -1, dtype=np.int64)
        self._stamp = np.zeros(n_docs, dtype=np.int64)
        self._clock = 0

        # Rᵀ, term-major: X_blk · Rᵀ reads it as it is
        self._rep_t = np.zeros((n_terms, k), dtype=np.float64)
        # the row-major copy of Rᵀ the last refresh() made; None once
        # Rᵀ has changed since
        self._rep_rows: Optional[FloatArray] = None
        self._crpp: List[float] = [0.0] * k
        self._ss: List[float] = [0.0] * k
        self._sizes: List[int] = [0] * k
        # gain(q, p) = a[p] * cr_sim(C_p, d_q) + b[p]  (Eq. 25-26)
        self._gain_a = np.zeros(k, dtype=np.float64)
        self._gain_b = np.zeros(k, dtype=np.float64)
        # one _Block per block-start row: X never changes within a
        # fit, so block slices and the Gram rows paid so far are reused
        # by every assignment pass. LRU-bounded to the number of blocks
        # of one full sweep — callers that probe shifting row subsets
        # (streaming fits, ad-hoc best_gains calls) would otherwise
        # accumulate one dense Gram block per distinct block start.
        self._block_cache: Dict[int, _Block] = {}
        # a zero column of length T: one row of X scattered into it at
        # a time gives that row's Gram row as one sparse mat-vec
        self._dense_row = np.zeros(n_terms, dtype=np.float64)
        self._block_cache_limit = max(
            1, -(-max(1, n_docs) // self._block_size)
        )

    # -- gain coefficients ----------------------------------------------

    def _refresh_coeffs(self, cluster_id: int) -> None:
        """Rebuild the affine gain coefficients of one cluster.

        See :func:`~repro.core.engines.base.affine_gain_coefficients`
        for the ``gain = a·cr + b`` derivation (Eq. 25-26).
        """
        a, b = affine_gain_coefficients(
            self._criterion,
            self._sizes[cluster_id],
            self._crpp[cluster_id],
            self._ss[cluster_id],
        )
        self._gain_a[cluster_id] = a
        self._gain_b[cluster_id] = b

    # -- membership (direct path: warm start, reseed, rescue, split) -----

    def _row_slice(self, row: int) -> Tuple[IntArray, FloatArray]:
        start, stop = self._indptr[row], self._indptr[row + 1]
        return self._indices[start:stop], self._data[start:stop]

    def add(self, cluster_id: int, row: int) -> None:
        ids, vals = self._row_slice(row)
        w2 = float(self._w2[row])
        dot = float(self._rep_t[ids, cluster_id] @ vals)
        self._crpp[cluster_id] += 2.0 * dot + w2
        self._ss[cluster_id] += w2
        self._rep_t[ids, cluster_id] += vals
        self._rep_rows = None
        self._sizes[cluster_id] += 1
        self._assigned[row] = cluster_id
        self._stamp[row] = self._clock
        self._clock += 1
        self._refresh_coeffs(cluster_id)

    def remove(self, cluster_id: int, row: int) -> None:
        ids, vals = self._row_slice(row)
        w2 = float(self._w2[row])
        dot = float(self._rep_t[ids, cluster_id] @ vals)
        self._crpp[cluster_id] += -2.0 * dot + w2
        self._ss[cluster_id] -= w2
        self._rep_t[ids, cluster_id] -= vals
        self._rep_rows = None
        self._sizes[cluster_id] -= 1
        self._assigned[row] = -1
        if self._sizes[cluster_id] == 0:
            self._rep_t[:, cluster_id] = 0.0
            self._crpp[cluster_id] = 0.0
            self._ss[cluster_id] = 0.0
        self._refresh_coeffs(cluster_id)

    def load(self, rows: IntArray, clusters: IntArray) -> None:
        """Append ``rows[i]`` to ``clusters[i]`` for every ``i``, in
        order, on an engine holding no member: the warm start's bulk
        form of one :meth:`add` per row followed by :meth:`refresh`.

        ``Rᵀ`` is one ``np.bincount`` over the rows' ``X`` entries,
        taken in assignment order and keyed by term and cluster, so
        every representative entry is the sum of its members' values
        from zero in the order the adds would make it (and the order
        the K×N one-hot assignment matrix times ``X`` sums them in).
        ``sizes`` and ``ss`` are ``np.bincount``s over the same order
        and ``cr_sim(C_p, C_p)`` is :meth:`refresh`'s. Nothing is
        changed when an argument is rejected.
        """
        rows = np.asarray(rows, dtype=np.int64)
        clusters = np.asarray(clusters, dtype=np.int64)
        n_docs = self._assigned.size
        if rows.ndim != 1 or rows.shape != clusters.shape:
            raise ConfigurationError(
                "load needs one cluster id per row, as two 1-d arrays"
            )
        outside = (clusters < 0) | (clusters >= self.k)
        if outside.any():
            raise ConfigurationError(
                f"cluster id {int(clusters[outside][0])} outside "
                f"[0, {self.k})"
            )
        if rows.size and (
            rows.min() < 0 or rows.max() >= n_docs
            or np.bincount(rows, minlength=n_docs).max() > 1
        ):
            raise ConfigurationError(
                f"load needs distinct rows in [0, {n_docs})"
            )
        if (self._assigned >= 0).any():
            raise ConfigurationError("load needs an engine with no member")
        sizes = np.bincount(clusters, minlength=self.k)
        at, lens = _entries(self._indptr, rows)
        n_terms = self._n_terms
        self._rep_t = np.bincount(
            self._indices[at].astype(np.int64) * self.k
            + np.repeat(clusters, lens),
            weights=self._data[at],
            minlength=n_terms * self.k,
        ).reshape(n_terms, self.k)
        self._ss = np.bincount(
            clusters, weights=self._w2[rows], minlength=self.k
        ).tolist()
        self._sizes = sizes.tolist()
        self._assigned[rows] = clusters
        self._stamp[rows] = np.arange(
            self._clock, self._clock + rows.size, dtype=np.int64
        )
        self._clock += rows.size
        self.refresh()

    def cluster_of(self, row: int) -> Optional[int]:
        cluster_id = int(self._assigned[row])
        return None if cluster_id < 0 else cluster_id

    # -- gain queries -----------------------------------------------------

    def best_gain(self, row: int) -> Tuple[int, float]:
        ids, vals = self._row_slice(row)
        return best_affine_gain(
            self._gain_a, self._gain_b, self._rep_t[ids].T @ vals
        )

    def best_gains(self, rows: IntArray) -> Tuple[IntArray, FloatArray]:
        rows = np.asarray(rows, dtype=np.int64)
        # the sweep moves documents, changing Rᵀ: drop the copy before
        # the blocks allocate
        self._rep_rows = None
        n = rows.size
        best_out = np.empty(n, dtype=np.int64)
        gain_out = np.empty(n, dtype=np.float64)
        block = self._block_size
        for start in range(0, n, block):
            stop = min(start + block, n)
            self._sweep_block(
                rows[start:stop], best_out[start:stop], gain_out[start:stop]
            )
        return best_out, gain_out

    def _block(self, block_rows: IntArray) -> _Block:
        """The block of ``block_rows``, cached across passes.

        ``X`` is immutable for the engine's lifetime and every
        assignment pass sweeps the documents in the same order, so a
        block's arrays and the Gram rows its movers have paid for are
        reused by every later pass. The cache is LRU — bounded to one
        full sweep's block count — so probing shifting document
        subsets over a long-lived engine recycles entries instead of
        accumulating a dense Gram block per block start.
        """
        nb = len(block_rows)
        first = int(block_rows[0])
        cached = self._block_cache.get(first)
        if cached is not None and np.array_equal(cached.rows, block_rows):
            self._block_cache[first] = self._block_cache.pop(first)
            return cached
        if first + nb - 1 == int(block_rows[-1]) and np.array_equal(
            block_rows, np.arange(first, first + nb, dtype=np.int64)
        ):
            # the usual case (pass order == matrix order): views of X
            indptr = self._indptr[first:first + nb + 1]
            indices, data = self._indices, self._data
        else:
            at, lens = _entries(self._indptr, block_rows)
            indptr = np.zeros(nb + 1, dtype=self._indptr.dtype)
            np.cumsum(lens, out=indptr[1:])
            indices, data = self._indices[at], self._data[at]
        while (
            first not in self._block_cache
            and len(self._block_cache) >= self._block_cache_limit
        ):
            self._block_cache.pop(next(iter(self._block_cache)))
        block = _Block(block_rows, indptr, indices, data, self._n_terms)
        self._block_cache[first] = block
        return block

    def _gram_row(self, block: _Block, i: int) -> None:
        """Compute row ``i`` of the block's Gram matrix right of column
        ``i`` as the later block rows times ``x⃗_i``: one sparse mat-vec
        whose every entry sums the same products in the same (ascending
        term) order as the full ``Xb · Xbᵀ``, plus exact zeros."""
        ids, vals = self._row_slice(int(block.rows[i]))
        dense = self._dense_row
        dense[ids] = vals
        block.gram[i, i + 1:] = _csr_dot(
            block.indptr[i + 1:], block.indices, block.data, dense
        )
        dense[ids] = 0.0
        block.have[i] = True

    def _sweep_block(
        self,
        block_rows: IntArray,
        best_out: IntArray,
        gain_out: FloatArray,
    ) -> None:
        """One block of the assignment sweep, answered by matmuls.

        ``ST[p, i]`` starts as ``c⃗_p · w⃗_i`` against the block-entry
        representatives (one product with ``Rᵀ``, read in place); every
        membership move inside the block folds the mover's Gram row into
        the not-yet-processed columns, so each document sees exactly the
        representative state the sequential reference loop would have
        seen. A document is decided before it moves: a member's own
        cluster is scored with its removal-adjusted gain, and only a net
        mover (it leaves, or joins another cluster) changes any state. A
        stationary member is only restamped, and stamps are written once
        per block: every document the block ends with in a cluster took
        its stamp in this sweep, in sweep order.

        Documents are decided in a live gain window ``G = a ⊙ ST + b``
        over the next ``SPECULATE_WINDOW`` columns (:meth:`_open_window`):
        one argmax per column decides every document up to the first
        net mover at once. The move then re-scores only what it changed
        (:meth:`_patch_window`), and the window carries on from the next
        column. A window opens only at a document that entered the block
        in a cluster: a run of unassigned documents mostly joins, and is
        cheaper decided one at a time from its column of ``ST`` (a first
        pass over a batch's new documents). Both paths compute every gain
        with the same arithmetic.

        The Gram policy is chosen when the block's sweep starts. The
        whole block is scored against its entry state (those scores are
        its first window), and every row that would move then gets its
        Gram row in one product (:meth:`_Block.fill`); a row that moves
        only because of an earlier move in the block pays one by one
        (:meth:`_gram_row`). The block keeps its Gram rows for later
        passes. Representative rows themselves are updated once per
        block from the accumulated moves (:meth:`_apply_moves`), not per
        document.
        """
        nb = len(block_rows)
        block = self._block(block_rows)
        assigned, stamp = self._assigned, self._stamp
        empty_blk = self._empty[block_rows]
        cur_blk = assigned[block_rows]
        # cluster-major layout: the per-move correction touches one
        # contiguous row slice, and the Gram matrix is exactly
        # symmetric (sorted CSR indices), so its rows stand in for its
        # columns
        ST = np.ascontiguousarray(_csr_dot(
            block.indptr, block.indices, block.data, self._rep_t
        ).T)
        G = np.empty_like(ST)
        live_blk = ~empty_blk
        any_empty = bool(empty_blk.any())
        w2_blk = self._w2[block_rows]
        # the Gram policy: the rows that would move against the
        # block-entry state get their Gram rows in one product now, a
        # row that moves only because of an earlier move pays one by
        # one. The scores stand as the block's first window.
        self._open_window(G, ST, 0, nb, cur_blk, w2_blk)
        would_move = _decide(G, cur_blk, live_blk if any_empty else None)[2]
        gram_bulk, gram_entries = block.fill(
            (would_move & ~block.have).nonzero()[0]
        )
        gram, have = block.gram, block.have
        gram_single = 0
        move_cluster: List[int] = []
        move_idx: List[int] = []
        move_sign: List[float] = []
        emptied: Set[int] = set()
        crpp, ss, sizes = self._crpp, self._ss, self._sizes
        gain_a, gain_b = self._gain_a, self._gain_b
        refresh_coeffs = self._refresh_coeffs
        gains = np.empty(self.k, dtype=np.float64)
        rows_l = block_rows.tolist()
        cur_l = cur_blk.tolist()
        w2_l = w2_blk.tolist()
        empty_l = empty_blk.tolist()
        member_pos: List[List[int]] = [[] for _ in range(self.k)]
        for position, cluster_id in enumerate(cur_l):
            if cluster_id >= 0:
                member_pos[cluster_id].append(position)
        window_docs = patches = 0
        i = 0
        # the live window is columns [i, w_end)
        w_end = min(SPECULATE_WINDOW, nb) if cur_l[0] >= 0 else 0
        while i < nb:
            if i >= w_end and cur_l[i] >= 0:
                w_end = min(i + SPECULATE_WINDOW, nb)
                self._open_window(G, ST, i, w_end, cur_blk, w2_blk)
            if i < w_end:
                # every document of the window is decided as the window
                # stands; the first net mover ends the stationary run
                best_w, gain_w, mover = _decide(
                    G[:, i:w_end], cur_blk[i:w_end],
                    live_blk[i:w_end] if any_empty else None,
                )
                k = int(mover.argmax())
                if not mover[k]:
                    k = w_end - i
                if k:
                    stop = i + k
                    best_out[i:stop] = best_w[:k]
                    gain_out[i:stop] = gain_w[:k]
                    if any_empty:
                        e = empty_blk[i:stop]
                        best_out[i:stop][e] = -1
                        gain_out[i:stop][e] = NO_GAIN
                    window_docs += k
                    i = stop
                    if i == w_end:
                        continue
                window_docs += 1
                if empty_l[i]:
                    best, gain = -1, NO_GAIN
                else:
                    best, gain = int(best_w[k]), float(gain_w[k])
            else:
                w2 = w2_l[i]
                current = cur_l[i]
                if empty_l[i]:
                    best, gain = -1, NO_GAIN
                else:
                    np.multiply(gain_a, ST[:, i], out=gains)
                    gains += gain_b
                    if current >= 0:
                        gains[current] = self._own_gain(
                            current, float(ST[current, i]), w2
                        )
                    best = int(gains.argmax())
                    gain = float(gains[best])
                if (best if gain > 0.0 else -1) == current:
                    best_out[i] = best
                    gain_out[i] = gain
                    i += 1
                    continue
            # a net mover: leave the current cluster, join the best one
            # when it gains
            row = rows_l[i]
            w2 = w2_l[i]
            current = cur_l[i]
            later = i + 1 < nb
            if later and not have[i]:
                self._gram_row(block, i)
                gram_single += 1
                gram_entries += nb - i - 1
            touched: List[int] = []
            if current >= 0:
                assigned[row] = -1
                dot = float(ST[current, i])
                crpp[current] += -2.0 * dot + w2
                ss[current] -= w2
                sizes[current] -= 1
                if sizes[current] == 0:
                    crpp[current] = 0.0
                    ss[current] = 0.0
                    emptied.add(current)
                refresh_coeffs(current)
                if later:
                    ST[current, i + 1:] -= gram[i, i + 1:]
                move_cluster.append(current)
                move_idx.append(i)
                move_sign.append(-1.0)
                touched.append(current)
            best_out[i] = best
            gain_out[i] = gain
            if gain > 0.0:
                dot = float(ST[best, i])
                crpp[best] += 2.0 * dot + w2
                ss[best] += w2
                sizes[best] += 1
                assigned[row] = best
                refresh_coeffs(best)
                if later:
                    ST[best, i + 1:] += gram[i, i + 1:]
                move_cluster.append(best)
                move_idx.append(i)
                move_sign.append(1.0)
                touched.append(best)
            i += 1
            if i < w_end:
                self._patch_window(G, ST, i, w_end, touched, member_pos,
                                   w2_l)
                patches += 1
        # every document the block ends with in a cluster joined it or
        # stayed in it during this sweep, and the reference's
        # remove+re-add put it last among its cluster's members, in sweep
        # order
        now = block_rows[assigned[block_rows] >= 0]
        stamp[now] = np.arange(self._clock, self._clock + now.size)
        self._clock += now.size
        if move_idx:
            self._apply_moves(block, move_cluster, move_idx, move_sign)
        for cluster_id in emptied:
            if sizes[cluster_id] == 0:
                # clear the float residue, as the direct path does
                self._rep_t[:, cluster_id] = 0.0
        counts = self.sweep_counts
        if counts is not None:
            counts.window_docs += window_docs
            counts.sequential_docs += nb - window_docs
            counts.movers += len(set(move_idx))
            counts.window_patches += patches
            counts.gram_rows_single += gram_single
            counts.gram_rows_bulk += gram_bulk
            counts.gram_entries += gram_entries

    def _open_window(
        self,
        G: FloatArray,
        ST: FloatArray,
        start: int,
        stop: int,
        cur_blk: IntArray,
        w2_blk: FloatArray,
    ) -> None:
        """Score columns ``[start, stop)`` of the gain window: ``G =
        a ⊙ ST + b`` (Eq. 25-26), with each member's own cluster scored
        at its removal-adjusted gain, exactly as :meth:`_own_gain`
        computes it."""
        window = slice(start, stop)
        np.multiply(ST[:, window], self._gain_a[:, None], out=G[:, window])
        G[:, window] += self._gain_b[:, None]
        members = start + (cur_blk[window] >= 0).nonzero()[0]
        if members.size:
            c = cur_blk[members]
            dots = ST[c, members]
            w2 = w2_blk[members]
            G[c, members] = _own_gains(
                self._criterion,
                np.asarray(self._sizes)[c] - 1,
                np.asarray(self._crpp)[c] + (-2.0 * dots + w2),
                np.asarray(self._ss)[c] - w2,
                dots - w2,
            )

    def _patch_window(
        self,
        G: FloatArray,
        ST: FloatArray,
        start: int,
        stop: int,
        clusters: List[int],
        member_pos: List[List[int]],
        w2_l: List[float],
    ) -> None:
        """Bring columns ``[start, stop)`` of the gain window up to date
        after a move that changed ``clusters``: their rows, and the
        own-cluster gains of their members in those columns
        (``member_pos[p]``: the block positions of ``p``'s members at
        block entry, ascending). Every other entry still holds what
        :meth:`_open_window` would compute now."""
        window = slice(start, stop)
        for p in clusters:
            row = G[p, window]
            np.multiply(ST[p, window], self._gain_a[p], out=row)
            row += self._gain_b[p]
            positions = member_pos[p]
            lo = bisect_left(positions, start)
            for m in positions[lo:bisect_left(positions, stop, lo)]:
                G[p, m] = self._own_gain(p, float(ST[p, m]), w2_l[m])

    def _apply_moves(
        self,
        block: _Block,
        move_cluster: List[int],
        move_idx: List[int],
        move_sign: List[float],
    ) -> None:
        """Add a block's moves to the representatives: each moved
        cluster gains ``Σ ±x⃗_i`` over its moves.

        The sum is one T×K ``np.bincount`` over the moves' entries in
        sweep order, keyed ``term·K + cluster``: each entry starts from
        zero and adds the moves' values in the order the sparse product
        of the K×b signed one-hot move matrix with ``Xb`` sums them in.
        It is added to ``Rᵀ`` in one dense add; the entries it leaves
        zero add nothing.
        """
        at, lens = _entries(block.indptr,
                            np.asarray(move_idx, dtype=np.int64))
        n_terms, k = self._rep_t.shape
        self._rep_t += np.bincount(
            block.indices[at].astype(np.int64) * k
            + np.repeat(move_cluster, lens),
            weights=np.repeat(move_sign, lens) * block.data[at],
            minlength=n_terms * k,
        ).reshape(n_terms, k)

    def _own_gain(self, cluster_id: int, dot: float, w2: float) -> float:
        """Gain of a member of ``cluster_id`` for re-joining it once
        removed: the Eq. 25-26 coefficients after the removal, at
        ``cr = dot - w2`` (``dot`` its ``cr_sim`` with the cluster as it
        is, ``w2`` its self-similarity). Bit-equal to the gain the
        coefficients refreshed after the removal's bookkeeping would
        give, and to :func:`_own_gains`' vectorised form."""
        a, b = affine_gain_coefficients(
            self._criterion,
            self._sizes[cluster_id] - 1,
            self._crpp[cluster_id] + (-2.0 * dot + w2),
            self._ss[cluster_id] - w2,
        )
        return a * (dot - w2) + b

    # -- global queries ---------------------------------------------------

    def sizes(self) -> List[int]:
        return list(self._sizes)

    def refresh(self) -> None:
        # the row-major copy gives each cr_sim(C_p, C_p) the summation
        # order of a dot over one contiguous row
        rep = self._rep_rows = np.ascontiguousarray(self._rep_t.T)
        fresh = np.einsum("ij,ij->i", rep, rep)
        self._crpp = [float(value) for value in fresh]
        for cluster_id in range(self.k):
            self._refresh_coeffs(cluster_id)

    def contributions(self) -> List[float]:
        result: List[float] = []
        for cluster_id in range(self.k):
            size = self._sizes[cluster_id]
            if size < 2:
                result.append(0.0)
            else:
                result.append(
                    (self._crpp[cluster_id] - self._ss[cluster_id])
                    / (size - 1)
                )
        return result

    def clustering_index(self) -> float:
        return float(sum(self.contributions()))

    def members(self) -> List[IntArray]:
        rows = np.flatnonzero(self._assigned >= 0)
        clusters = self._assigned[rows]
        rows = rows[np.lexsort((self._stamp[rows], clusters))]
        sizes = np.bincount(clusters, minlength=self.k)
        return np.split(rows, np.cumsum(sizes)[:-1])

    def self_similarity(self, row: int) -> float:
        return float(self._w2[row])

    def _support(self) -> BoolArray:
        """``K × T`` mask of the terms some member of each cluster
        carries, scattered from the members' column indices through
        one flat index."""
        n_terms = self._n_terms
        owner = np.repeat(self._assigned, np.diff(self._indptr))
        member = owner >= 0
        support = np.zeros(self.k * n_terms, dtype=bool)
        support[owner[member] * n_terms + self._indices[member]] = True
        return support.reshape(self.k, n_terms)

    def freeze(self) -> EngineView:
        contributions = self.contributions()
        # an empty term space is padded to one column; the view is not
        n_terms = self._term_ids.size
        # the fit's last refresh() made the row-major copy already,
        # unless Rᵀ changed since
        rows = self._rep_rows
        if rows is None:
            rows = np.ascontiguousarray(self._rep_t.T)
        # _remove subtracts in place, leaving float residue on terms no
        # remaining member carries; readers see those as exact zeros
        representatives = np.ascontiguousarray(np.where(
            self._support()[:, :n_terms], rows[:, :n_terms], 0.0
        ))
        return EngineView(
            criterion=self._criterion,
            term_ids=self._term_ids.copy(),
            representatives=representatives,
            sizes=np.array(self._sizes, dtype=np.int64),
            crpp=np.array(self._crpp, dtype=np.float64),
            ss=np.array(self._ss, dtype=np.float64),
            gain_a=self._gain_a.copy(),
            gain_b=self._gain_b.copy(),
            contributions=np.array(contributions, dtype=np.float64),
            clustering_index=float(sum(contributions)),
        )
