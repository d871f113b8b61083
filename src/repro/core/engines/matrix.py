"""Vectorised engine: one CSR matrix, assignment sweeps by matmul.

The assignment pass (Section 4.3 step 1) is the hot path of the
extended K-means: for every document it needs ``cr_sim(C_p, d_q) =
c⃗_p · w⃗_q`` against every cluster representative (Eq. 26). The
paper's reference loop (kept with the tests as the ``"dense"`` oracle)
answers that with one gather per document; this engine batches the
*whole sweep*:

* all weighted document vectors live in one CSR matrix ``X`` (N×V),
  taken as the vectoriser built it (rows already hold their terms
  ascending), with cached self-similarities ``w⃗_d·w⃗_d`` (the Eq. 23
  summands, which already fold in the ``Pr(d)/len_d`` novelty weights
  of Eq. 12-16),
* cluster representatives are dense accumulator rows ``R`` (K×V,
  Eq. 19-20); the warm start (Section 5.2 step 3) loads them in bulk
  as the one-hot assignment matrix times ``X`` (:meth:`MatrixEngine.load`),
* per block of documents the representative dot products arrive as one
  sparse-dense product ``S = X_blk · Rᵀ``, and the sweep's own
  membership moves are replayed into ``S`` exactly from rows of the
  intra-block Gram matrix ``X_blk · X_blkᵀ`` (when document j
  left/joined cluster p, the later rows' similarity to p changes by
  ∓``w⃗_i·w⃗_j``). Only movers need their Gram row, so a row is paid
  for when its document first moves, and kept for later passes,
* the Eq. 25-26 gain of document q against cluster p is affine in
  ``cr_sim(C_p, d_q)``, so per document the K gains are one
  fused multiply-add ``a ⊙ cr + b`` over incrementally maintained
  coefficient vectors instead of the full Eq. 24 recomputation,
* each document is decided before anything moves: a member is scored
  against its own cluster with its removal-adjusted gain, and state
  changes only for a net mover. A document that stays where it is
  leaves ``cr_sim``, ``ss``, ``S`` and the representatives untouched,
  whether the sequential loop or the speculative fast path over runs
  of stationary documents resolves it, so the output does not depend
  on that path's lookahead (``SPECULATE_WINDOW``).

The decisions are the reference recurrence's — same gains, same order
of membership moves — so assignments match the dense oracle. ``G``
agrees to float summation order: the oracle removes and re-adds a
stationary member, a round trip of its aggregates through rounding
that this engine skips.

Requires :mod:`scipy`, a declared dependency of the package;
construction fails with a clear message when it is missing.
"""

from __future__ import annotations

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

# typed Any rather than a module so both the ImportError fallback and
# the attribute accesses below type-check with or without scipy stubs
_sp: Any = None
try:  # pragma: no cover - exercised implicitly on import
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - scipy is present in CI/dev envs
    pass
else:
    _sp = _scipy_sparse

#: Documents per sweep block: large enough to amortise the two matmuls,
#: small enough that the b×b Gram matrix stays cache-resident.
DEFAULT_BLOCK_SIZE = 256

#: A sweep pays a mover's Gram row with one sparse mat-vec, at about
#: twice the cost per row of one sparse product over many rows. Every
#: ``GRAM_CHECK_EVERY`` rows paid one by one, when more than
#: ``GRAM_BULK_SHARE`` of the block's rows so far have needed theirs
#: (a first pass over a reshuffled window), the block's later rows get
#: theirs from one product instead.
GRAM_CHECK_EVERY = 16
GRAM_BULK_SHARE = 0.3

#: Lookahead of the net-stationary fast path: bounds the work thrown
#: away when a mover interrupts a stationary run.
SPECULATE_WINDOW = 64


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


class _Block:
    """One sweep block: its rows, its slice ``Xb`` of ``X`` and the rows
    of its Gram matrix ``Xb · Xbᵀ`` computed so far.

    A Gram row is paid only for a row that moves: the sweep replays a
    mover's Gram row into the later rows' similarities, and a row that
    stays where it is needs none. Every row is computed as a whole and
    is bit-equal to that row of the full product.
    """

    __slots__ = ("rows", "X", "XT", "gram", "have")

    def __init__(self, rows: IntArray, X: Any) -> None:
        self.rows = rows.copy()
        self.X = X
        # Xbᵀ as CSR, the operand every product below converts to;
        # kept for one sweep of the block only (later passes seldom
        # fill, and a block's Xbᵀ is as large as its slice of X)
        self.XT: Any = None
        self.gram: FloatArray = np.empty((rows.size, rows.size),
                                         dtype=np.float64)
        self.have: BoolArray = np.zeros(rows.size, dtype=bool)

    def fill(self, positions: IntArray) -> None:
        """Compute the Gram rows of ``positions`` in one sparse product."""
        todo = positions[~self.have[positions]]
        if todo.size:
            if self.XT is None:
                self.XT = self.X.T.tocsr()
            self.gram[todo] = (self.X[todo] @ self.XT).toarray()
            self.have[todo] = True


class MatrixEngine:
    """CSR document matrix + dense representatives, blockwise sweeps.

    All per-document state is an array over the batch's rows: the
    cluster holding each row (``-1`` when unassigned), its
    self-similarity, whether its vector is empty, and the stamp of its
    last append. A cluster's members are its rows in stamp order, which
    is the order the dense oracle's member dicts keep.
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

        # the vectoriser's flat arrays and compact column map are
        # already the matrix layout: rows hold their terms ascending
        indptr = np.asarray(vectors.indptr, dtype=np.int64)
        term_ids, cols = vectors.columns()
        n_docs = len(vectors)
        lens = np.diff(indptr)
        self._term_ids = np.asarray(term_ids, dtype=np.int64)
        n_terms = max(1, len(term_ids))
        self._X = _sp.csr_matrix(
            (vectors.data, cols, indptr), shape=(n_docs, n_terms)
        )
        self._w2 = _row_dots(indptr, vectors.data)
        # exactly the empty-vector rows decide (-1, NO_GAIN); gating on
        # the stored length rather than `w2 <= 0.0` keeps parity with
        # the dense oracle for non-empty vectors whose self-similarity
        # underflows to 0.0
        self._empty: BoolArray = lens == 0
        self._assigned = np.full(n_docs, -1, dtype=np.int64)
        self._stamp = np.zeros(n_docs, dtype=np.int64)
        self._clock = 0

        self._rep = np.zeros((k, n_terms), dtype=np.float64)
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
        start, stop = self._X.indptr[row], self._X.indptr[row + 1]
        return self._X.indices[start:stop], self._X.data[start:stop]

    def add(self, cluster_id: int, row: int) -> None:
        ids, vals = self._row_slice(row)
        w2 = float(self._w2[row])
        dot = float(self._rep[cluster_id, ids] @ vals)
        self._crpp[cluster_id] += 2.0 * dot + w2
        self._ss[cluster_id] += w2
        self._rep[cluster_id, ids] += vals
        self._sizes[cluster_id] += 1
        self._assigned[row] = cluster_id
        self._stamp[row] = self._clock
        self._clock += 1
        self._refresh_coeffs(cluster_id)

    def remove(self, cluster_id: int, row: int) -> None:
        ids, vals = self._row_slice(row)
        w2 = float(self._w2[row])
        dot = float(self._rep[cluster_id, ids] @ vals)
        self._crpp[cluster_id] += -2.0 * dot + w2
        self._ss[cluster_id] -= w2
        self._rep[cluster_id, ids] -= vals
        self._sizes[cluster_id] -= 1
        self._assigned[row] = -1
        if self._sizes[cluster_id] == 0:
            self._rep[cluster_id, :] = 0.0
            self._crpp[cluster_id] = 0.0
            self._ss[cluster_id] = 0.0
        self._refresh_coeffs(cluster_id)

    def load(self, rows: IntArray, clusters: IntArray) -> None:
        """Append ``rows[i]`` to ``clusters[i]`` for every ``i``, in
        order, on an engine holding no member: the warm start's bulk
        form of one :meth:`add` per row followed by :meth:`refresh`.

        The representatives are one product of the K×N one-hot
        assignment matrix with ``X``. Its CSR rows list each cluster's
        members in assignment order (a COO build would sort them), so
        every representative entry is the sum of its members' values in
        the order the adds would make it; ``sizes`` and ``ss`` are
        ``np.bincount``s over the same order and ``cr_sim(C_p, C_p)``
        is :meth:`refresh`'s. Nothing is changed when an argument is
        rejected.
        """
        rows = np.asarray(rows, dtype=np.int64)
        clusters = np.asarray(clusters, dtype=np.int64)
        n_docs = self._X.shape[0]
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
        indptr = np.zeros(self.k + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        by_cluster = rows[np.argsort(clusters, kind="stable")]
        membership = _sp.csr_matrix(
            (np.ones(rows.size), by_cluster, indptr),
            shape=(self.k, n_docs),
        )
        self._rep = np.ascontiguousarray(
            (membership @ self._X).toarray(), dtype=np.float64
        )
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
            self._gain_a, self._gain_b, self._rep[:, ids] @ vals
        )

    def best_gains(self, rows: IntArray) -> Tuple[IntArray, FloatArray]:
        rows = np.asarray(rows, dtype=np.int64)
        n = rows.size
        best_out = np.empty(n, dtype=np.int64)
        gain_out = np.empty(n, dtype=np.float64)
        gains = np.empty(self.k, dtype=np.float64)
        block = self._block_size
        for start in range(0, n, block):
            stop = min(start + block, n)
            self._sweep_block(
                rows[start:stop], gains,
                best_out[start:stop], gain_out[start:stop],
            )
        return best_out, gain_out

    def _block(self, block_rows: IntArray) -> _Block:
        """The block of ``block_rows``, cached across passes.

        ``X`` is immutable for the engine's lifetime and every
        assignment pass sweeps the documents in the same order, so a
        block's slice and the Gram rows its movers have paid for are
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
            # the usual case (pass order == matrix order): a cheap slice
            # instead of the fancy-index extraction product
            Xb = self._X[first:first + nb]
        else:
            Xb = self._X[block_rows]
        while (
            first not in self._block_cache
            and len(self._block_cache) >= self._block_cache_limit
        ):
            self._block_cache.pop(next(iter(self._block_cache)))
        block = _Block(block_rows, Xb)
        self._block_cache[first] = block
        return block

    def _gram_row(self, block: _Block, i: int) -> None:
        """Compute row ``i`` of the block's Gram matrix as ``Xb · x⃗_i``:
        one sparse mat-vec whose every entry sums the same products in
        the same (ascending term) order as the full ``Xb · Xbᵀ``, plus
        exact zeros."""
        ids, vals = self._row_slice(int(block.rows[i]))
        dense = self._dense_row
        dense[ids] = vals
        block.gram[i] = block.X @ dense
        dense[ids] = 0.0
        block.have[i] = True

    def _sweep_block(
        self,
        block_rows: IntArray,
        gains: FloatArray,
        best_out: IntArray,
        gain_out: FloatArray,
    ) -> None:
        """One block of the assignment sweep, answered by matmuls.

        ``ST[p, i]`` starts as ``c⃗_p · w⃗_i`` against the block-entry
        representatives (one product); every membership move inside the
        block folds the mover's Gram row into the not-yet-processed
        columns, so each document sees exactly the representative state
        the sequential reference loop would have seen. A document is
        decided before it moves: a member's own cluster is scored with
        :meth:`_own_gain`, and only a net mover (it leaves, or joins
        another cluster) is removed and re-added; a stationary member is
        only restamped, as :meth:`_speculate` does. Gram rows are
        paid per mover: the rows entering the block unassigned (they
        join unless they are outliers) get theirs from one product up
        front, any other row on its first move (:meth:`_gram_row`, or
        one product for the block's later rows once most rows have
        moved); the block keeps them for later passes. Representative
        rows themselves are updated once per block from the
        accumulated moves (one sparse product), not per document.
        """
        nb = len(block_rows)
        block = self._block(block_rows)
        Xb = block.X
        empty_blk = self._empty[block_rows]
        block.fill(np.flatnonzero(
            (self._assigned[block_rows] < 0) & ~empty_blk
        ))
        gram, have = block.gram, block.have
        paid = 0

        def pay_gram_row(i: int) -> None:
            # the first move of a row whose Gram row is not yet paid
            nonlocal paid
            paid += 1
            if (paid % GRAM_CHECK_EVERY == 0
                    and paid > GRAM_BULK_SHARE * (i + 1)):
                block.fill(i + np.flatnonzero(~empty_blk[i:]))
            if not have[i]:
                self._gram_row(block, i)

        # cluster-major layout: the per-move correction touches one
        # contiguous row slice, and the Gram matrix is exactly
        # symmetric (sorted CSR indices), so its rows stand in for its
        # columns
        ST = np.ascontiguousarray(np.asarray(Xb @ self._rep.T).T)
        move_cluster: List[int] = []
        move_idx: List[int] = []
        move_sign: List[float] = []
        emptied: Set[int] = set()
        assigned, stamp = self._assigned, self._stamp
        crpp, ss, sizes = self._crpp, self._ss, self._sizes
        gain_a, gain_b = self._gain_a, self._gain_b
        refresh_coeffs = self._refresh_coeffs
        rows_l = block_rows.tolist()
        w2_blk = self._w2[block_rows]
        w2_l = w2_blk.tolist()
        empty_l = empty_blk.tolist()
        i = 0
        spec_fails = 0
        while i < nb:
            # vectorised fast path over a run of net-stationary
            # documents; gives up for the block after three immediate
            # misses (e.g. the first pass, where every document moves)
            if spec_fails < 3 and nb - i > 16:
                advanced = self._speculate(
                    block_rows, i, ST, w2_blk, best_out, gain_out
                )
                if advanced:
                    spec_fails = 0
                    i += advanced
                    if i >= nb:
                        break
                else:
                    spec_fails += 1
            row = rows_l[i]
            w2 = w2_l[i]
            current = int(assigned[row])
            if empty_l[i]:
                best, gain = -1, NO_GAIN
            else:
                # decide before moving: a member's own cluster is scored
                # with its removal-adjusted gain, so a document that
                # would re-join where it is changes nothing
                np.multiply(gain_a, ST[:, i], out=gains)
                gains += gain_b
                if current >= 0:
                    gains[current] = self._own_gain(
                        current, float(ST[current, i]), w2
                    )
                best = int(np.argmax(gains))
                gain = float(gains[best])
                if best == current and gain > 0.0:
                    best_out[i] = best
                    gain_out[i] = gain
                    # the reference's remove+re-add moves it to the end
                    # of its cluster's members
                    stamp[row] = self._clock
                    self._clock += 1
                    i += 1
                    continue
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
                if i + 1 < nb:
                    if not have[i]:
                        pay_gram_row(i)
                    ST[current, i + 1:] -= gram[i, i + 1:]
                move_cluster.append(current)
                move_idx.append(i)
                move_sign.append(-1.0)
            best_out[i] = best
            gain_out[i] = gain
            if gain > 0.0:
                dot = float(ST[best, i])
                crpp[best] += 2.0 * dot + w2
                ss[best] += w2
                sizes[best] += 1
                assigned[row] = best
                stamp[row] = self._clock
                self._clock += 1
                refresh_coeffs(best)
                if i + 1 < nb:
                    if not have[i]:
                        pay_gram_row(i)
                    ST[best, i + 1:] += gram[i, i + 1:]
                move_cluster.append(best)
                move_idx.append(i)
                move_sign.append(1.0)
            i += 1
        if move_idx:
            delta = (
                _sp.csr_matrix(
                    (
                        np.asarray(move_sign, dtype=np.float64),
                        (
                            np.asarray(move_cluster, dtype=np.int64),
                            np.asarray(move_idx, dtype=np.int64),
                        ),
                    ),
                    shape=(self.k, nb),
                )
                @ Xb
            ).tocsr()
            indptr, indices, data = delta.indptr, delta.indices, delta.data
            for cluster_id in set(move_cluster):
                lo, hi = indptr[cluster_id], indptr[cluster_id + 1]
                if lo != hi:
                    self._rep[cluster_id, indices[lo:hi]] += data[lo:hi]
        for cluster_id in emptied:
            if sizes[cluster_id] == 0:
                # clear the float residue, as the direct path does
                self._rep[cluster_id, :] = 0.0
        block.XT = None

    def _own_gain(self, cluster_id: int, dot: float, w2: float) -> float:
        """Gain of a member of ``cluster_id`` for re-joining it once
        removed: the Eq. 25-26 coefficients after the removal, at
        ``cr = dot - w2`` (``dot`` its ``cr_sim`` with the cluster as it
        is, ``w2`` its self-similarity). Bit-equal to the gain the
        coefficients refreshed after the removal's bookkeeping would
        give, and to :meth:`_speculate`'s vectorised form."""
        a, b = affine_gain_coefficients(
            self._criterion,
            self._sizes[cluster_id] - 1,
            self._crpp[cluster_id] + (-2.0 * dot + w2),
            self._ss[cluster_id] - w2,
        )
        return a * (dot - w2) + b

    def _speculate(
        self,
        block_rows: IntArray,
        i0: int,
        ST: FloatArray,
        w2_blk: FloatArray,
        best_out: IntArray,
        gain_out: FloatArray,
    ) -> int:
        """Resolve a leading run of net-stationary documents at once.

        In converged iterations almost every document is removed,
        probed, and re-joins the cluster it came from — a net no-op on
        every cluster's accounting. This path evaluates the Eq. 25-26
        gains of all remaining documents in one broadcast (each with
        its own-cluster coefficients adjusted for its removal, exactly
        as :meth:`_own_gain` computes them), records the decisions up
        to the first document that actually changes membership, and
        returns how many were resolved; the caller's sequential loop
        takes over at the first net mover. Returns 0 when the very next
        document moves. The sequential loop leaves a stationary
        document's state exactly as this path does, so how far it looks
        ahead changes no output.
        """
        stop_at = min(i0 + SPECULATE_WINDOW, ST.shape[1])
        STv = ST[:, i0:stop_at]
        m = STv.shape[1]
        rows = block_rows[i0:stop_at]
        cur = self._assigned[rows]
        w2v = w2_blk[i0:stop_at]
        G = self._gain_a[:, None] * STv
        G += self._gain_b[:, None]
        asg = cur >= 0
        if asg.any():
            j = np.flatnonzero(asg)
            c = cur[j]
            dots = STv[c, j]
            w2a = w2v[j]
            crpp1 = np.asarray(self._crpp)[c] + (-2.0 * dots + w2a)
            ss1 = np.asarray(self._ss)[c] - w2a
            n1 = np.asarray(self._sizes)[c] - 1
            dprime = dots - w2a
            if self._criterion == "g":
                a_ = 2.0 / np.maximum(n1, 1)
                b_ = -(crpp1 - ss1) / np.maximum(n1 * (n1 - 1), 1)
                g_own = np.where(
                    n1 <= 0, 0.0,
                    np.where(n1 == 1, 2.0 * dprime, a_ * dprime + b_),
                )
            else:
                diff = crpp1 - ss1
                d1 = np.maximum(n1 * (n1 + 1), 1)
                a_ = 2.0 / d1
                avg_cur = np.where(
                    n1 > 1, diff / np.maximum(n1 * (n1 - 1), 1), 0.0
                )
                b_ = diff / d1 - avg_cur
                g_own = np.where(n1 <= 0, 0.0, a_ * dprime + b_)
            G[c, j] = g_own
        best0 = np.argmax(G, axis=0)
        gain0 = G[best0, np.arange(m)]
        # same empty-vector gate as the sequential path
        empty = self._empty[rows]
        join = gain0 > 0.0
        moved = np.where(asg, (best0 != cur) | ~join, join & ~empty)
        movers = np.flatnonzero(moved)
        stop = int(movers[0]) if movers.size else m
        if stop == 0:
            return 0
        b_seg, g_seg = best0[:stop], gain0[:stop]
        e = empty[:stop]
        if e.any():
            b_seg, g_seg = b_seg.copy(), g_seg.copy()
            b_seg[e] = -1
            g_seg[e] = NO_GAIN
        best_out[i0:i0 + stop] = b_seg
        gain_out[i0:i0 + stop] = g_seg
        # the reference loop's remove+re-add cycles a stationary doc to
        # the end of its cluster's members, in sweep order; new stamps
        # keep members() identical to the dense oracle's
        stationary = rows[:stop][asg[:stop]]
        self._stamp[stationary] = np.arange(
            self._clock, self._clock + stationary.size, dtype=np.int64
        )
        self._clock += stationary.size
        return stop

    # -- global queries ---------------------------------------------------

    def sizes(self) -> List[int]:
        return list(self._sizes)

    def refresh(self) -> None:
        fresh = np.einsum("ij,ij->i", self._rep, self._rep)
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
        carries: the membership matrix times ``X``'s sparsity pattern."""
        rows = np.flatnonzero(self._assigned >= 0)
        membership = _sp.csr_matrix(
            (np.ones(rows.size), (self._assigned[rows], rows)),
            shape=(self.k, self._X.shape[0]),
        )
        X = self._X
        pattern = _sp.csr_matrix(
            (np.ones(X.nnz), X.indices, X.indptr), shape=X.shape
        )
        support: BoolArray = (membership @ pattern).toarray() > 0.0
        return support

    def freeze(self) -> EngineView:
        contributions = self.contributions()
        # an empty term space is padded to one column; the view is not
        n_terms = self._term_ids.size
        # _remove subtracts in place, leaving float residue on terms no
        # remaining member carries; readers see those as exact zeros
        representatives = np.where(
            self._support()[:, :n_terms], self._rep[:, :n_terms], 0.0
        )
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
