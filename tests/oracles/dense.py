"""The dense oracle engine: K×V representatives, one doc at a time.

Representatives live in a dense K×V matrix and the assignment sweep is
the paper's sequential reference loop: each document leaves its
cluster, its gain against *all* clusters (Eq. 26) is one fancy-indexed
matrix-vector product, and it joins the winner.
:class:`~repro.core.engines.MatrixEngine` must decide exactly as this
one does. Like every engine it names documents by their row of the
batch; membership is one plain ``{row: None}`` dict per cluster, so a
document removed and re-added moves to the end of its cluster's
members.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._typing import FloatArray, IntArray
from repro.core.engines.base import (
    NO_GAIN,
    EngineView,
    affine_gain_coefficients,
)
from repro.exceptions import ConfigurationError
from repro.vectors.arrays import WeightedVectorArrays


class DenseEngine:
    """Oracle engine: K×V representative matrix, per-document gains."""

    name = "dense"

    def __init__(
        self, k: int, vectors: WeightedVectorArrays, criterion: str
    ) -> None:
        self.k = int(k)
        self._criterion = criterion
        self._assigned: Dict[int, int] = {}
        indptr = vectors.indptr
        lens = np.diff(indptr)
        self._empty_rows = set(np.flatnonzero(lens == 0).tolist())
        # take the batch's compact columns and sort terms within each
        # row in one global argsort (terms ascending per document), the
        # same column map and per-row order the matrix engine builds
        n_docs = len(vectors)
        term_id_arr, cols = vectors.columns()
        self._term_ids = np.array(term_id_arr, dtype=np.int64)
        n_terms = max(1, int(term_id_arr.size))
        row_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        order = np.argsort(row_of * n_terms + cols, kind="stable")
        all_ids = cols[order]
        all_vals = vectors.data[order]
        self._doc_ids: List[IntArray] = []
        self._doc_vals: List[FloatArray] = []
        self._doc_w2: List[float] = []
        for row in range(n_docs):
            lo, hi = int(indptr[row]), int(indptr[row + 1])
            vals = all_vals[lo:hi]
            self._doc_ids.append(all_ids[lo:hi])
            self._doc_vals.append(vals)
            self._doc_w2.append(float(vals @ vals))
        self._rep = np.zeros((k, n_terms), dtype=np.float64)
        self._crpp = np.zeros(k, dtype=np.float64)
        self._ss = np.zeros(k, dtype=np.float64)
        self._sizes = np.zeros(k, dtype=np.int64)
        self._members: List[Dict[int, None]] = [{} for _ in range(k)]

    # -- membership -----------------------------------------------------

    def add(self, cluster_id: int, row: int) -> None:
        ids, vals = self._doc_ids[row], self._doc_vals[row]
        w2 = self._doc_w2[row]
        dot = float(self._rep[cluster_id, ids] @ vals)
        self._crpp[cluster_id] += 2.0 * dot + w2
        self._ss[cluster_id] += w2
        self._rep[cluster_id, ids] += vals
        self._sizes[cluster_id] += 1
        self._members[cluster_id][row] = None
        self._assigned[row] = cluster_id

    def remove(self, cluster_id: int, row: int) -> None:
        del self._members[cluster_id][row]
        ids, vals = self._doc_ids[row], self._doc_vals[row]
        w2 = self._doc_w2[row]
        dot = float(self._rep[cluster_id, ids] @ vals)
        self._crpp[cluster_id] += -2.0 * dot + w2
        self._ss[cluster_id] -= w2
        self._rep[cluster_id, ids] -= vals
        self._sizes[cluster_id] -= 1
        if self._sizes[cluster_id] == 0:
            self._rep[cluster_id, :] = 0.0
            self._crpp[cluster_id] = 0.0
            self._ss[cluster_id] = 0.0
        self._assigned.pop(row, None)

    def load(self, rows: IntArray, clusters: IntArray) -> None:
        """The reference bulk warm start: one :meth:`add` per row, in
        order, then :meth:`refresh`."""
        clusters = np.asarray(clusters, dtype=np.int64)
        outside = (clusters < 0) | (clusters >= self.k)
        if outside.any():
            raise ConfigurationError(
                f"cluster id {int(clusters[outside][0])} outside "
                f"[0, {self.k})"
            )
        for row, cluster_id in zip(np.asarray(rows).tolist(),
                                   clusters.tolist()):
            self.add(cluster_id, row)
        self.refresh()

    def cluster_of(self, row: int) -> Optional[int]:
        return self._assigned.get(row)

    # -- gain queries ---------------------------------------------------

    def best_gains(self, rows: IntArray) -> Tuple[IntArray, FloatArray]:
        """The sequential reference sweep: each row leaves its cluster,
        probes every cluster and joins the best when its gain is
        positive; exactly the empty-vector rows decide ``(-1, NO_GAIN)``."""
        best_out: List[int] = []
        gain_out: List[float] = []
        for row in np.asarray(rows, dtype=np.int64).tolist():
            current = self.cluster_of(row)
            if current is not None:
                self.remove(current, row)
            if row in self._empty_rows:
                best_out.append(-1)
                gain_out.append(NO_GAIN)
                continue
            cluster_id, gain = self.best_gain(row)
            if gain > 0.0:
                self.add(cluster_id, row)
            best_out.append(cluster_id)
            gain_out.append(gain)
        return (np.array(best_out, dtype=np.int64),
                np.array(gain_out, dtype=np.float64))

    def best_gain(self, row: int) -> Tuple[int, float]:
        ids, vals = self._doc_ids[row], self._doc_vals[row]
        n = self._sizes
        cr_pq = self._rep[:, ids] @ vals
        if self._criterion == "g":
            pair_sum = (self._crpp - self._ss) / 2.0
            gains = np.where(
                n > 1,
                2.0 * (cr_pq * (n - 1) - pair_sum)
                / np.maximum(n * (n - 1), 1),
                np.where(n == 1, 2.0 * cr_pq, 0.0),
            )
        else:
            avg_new = np.where(
                n > 0,
                (self._crpp + 2.0 * cr_pq - self._ss)
                / np.maximum(n * (n + 1), 1),
                0.0,
            )
            avg_cur = np.where(
                n > 1,
                (self._crpp - self._ss) / np.maximum(n * (n - 1), 1),
                0.0,
            )
            gains = avg_new - avg_cur
        best = int(np.argmax(gains))
        return best, float(gains[best])

    # -- global queries -------------------------------------------------

    def sizes(self) -> List[int]:
        return [int(s) for s in self._sizes]

    def refresh(self) -> None:
        self._crpp = np.einsum("ij,ij->i", self._rep, self._rep)

    def clustering_index(self) -> float:
        n = self._sizes
        contributions = np.where(
            n > 1,
            (self._crpp - self._ss) / np.maximum(n - 1, 1),
            0.0,
        )
        return float(contributions.sum())

    def contributions(self) -> List[float]:
        result: List[float] = []
        for cid in range(self.k):
            size = int(self._sizes[cid])
            if size < 2:
                result.append(0.0)
            else:
                result.append(
                    float(self._crpp[cid] - self._ss[cid]) / (size - 1)
                )
        return result

    def members(self) -> List[IntArray]:
        return [np.array(list(members), dtype=np.int64)
                for members in self._members]

    def self_similarity(self, row: int) -> float:
        return self._doc_w2[row]

    def freeze(self) -> EngineView:
        coefficients = [
            affine_gain_coefficients(
                self._criterion, int(self._sizes[cid]),
                float(self._crpp[cid]), float(self._ss[cid]),
            )
            for cid in range(self.k)
        ]
        return EngineView(
            criterion=self._criterion,
            term_ids=self._term_ids.copy(),
            representatives=self._rep[:, :self._term_ids.size].copy(),
            sizes=self._sizes.copy(),
            crpp=self._crpp.copy(),
            ss=self._ss.copy(),
            gain_a=np.array([a for a, _ in coefficients], dtype=np.float64),
            gain_b=np.array([b for _, b in coefficients], dtype=np.float64),
            contributions=np.array(self.contributions(), dtype=np.float64),
            clustering_index=self.clustering_index(),
        )
