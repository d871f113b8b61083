"""The dense oracle engine: K×V representatives, one doc at a time.

Representatives live in a dense K×V matrix and the assignment sweep is
the sequential reference loop of :class:`~repro.core.engines.EngineBase`:
each document leaves its cluster, its gain against *all* clusters
(Eq. 26) is one fancy-indexed matrix-vector product, and it joins the
winner. :class:`~repro.core.engines.MatrixEngine` must decide exactly
as this one does.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro._typing import FloatArray, IntArray
from repro.core.engines.base import (
    EngineBase,
    EngineView,
    affine_gain_coefficients,
)
from repro.vectors.arrays import WeightedVectorArrays


class DenseEngine(EngineBase):
    """Oracle engine: K×V representative matrix, per-document gains."""

    name = "dense"

    def __init__(
        self, k: int, vectors: WeightedVectorArrays, criterion: str
    ) -> None:
        super().__init__(k, vectors)
        self._criterion = criterion
        self._doc_ids: Dict[str, IntArray] = {}
        self._doc_vals: Dict[str, FloatArray] = {}
        self._doc_w2: Dict[str, float] = {}
        # take the batch's compact columns and sort terms within each
        # row in one global argsort (terms ascending per document), the
        # same column map and per-row order the matrix engine builds
        doc_id_list, indptr, _, raw_vals = vectors.csr_parts()
        n_docs = len(doc_id_list)
        term_id_arr, cols = vectors.columns()
        self._term_ids = np.array(term_id_arr, dtype=np.int64)
        n_terms = max(1, int(term_id_arr.size))
        lens = np.diff(indptr)
        row_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        order = np.argsort(row_of * n_terms + cols, kind="stable")
        all_ids = cols[order]
        all_vals = raw_vals[order]
        for row, doc_id in enumerate(doc_id_list):
            lo, hi = int(indptr[row]), int(indptr[row + 1])
            ids = all_ids[lo:hi]
            vals = all_vals[lo:hi]
            self._doc_ids[doc_id] = ids
            self._doc_vals[doc_id] = vals
            self._doc_w2[doc_id] = float(vals @ vals)
        self._rep = np.zeros((k, n_terms), dtype=np.float64)
        self._crpp = np.zeros(k, dtype=np.float64)
        self._ss = np.zeros(k, dtype=np.float64)
        self._sizes = np.zeros(k, dtype=np.int64)
        self._members: List[Dict[str, None]] = [{} for _ in range(k)]

    def _add(self, cluster_id: int, doc_id: str) -> None:
        ids, vals = self._doc_ids[doc_id], self._doc_vals[doc_id]
        w2 = self._doc_w2[doc_id]
        dot = float(self._rep[cluster_id, ids] @ vals)
        self._crpp[cluster_id] += 2.0 * dot + w2
        self._ss[cluster_id] += w2
        self._rep[cluster_id, ids] += vals
        self._sizes[cluster_id] += 1
        self._members[cluster_id][doc_id] = None

    def _remove(self, cluster_id: int, doc_id: str) -> None:
        del self._members[cluster_id][doc_id]
        ids, vals = self._doc_ids[doc_id], self._doc_vals[doc_id]
        w2 = self._doc_w2[doc_id]
        dot = float(self._rep[cluster_id, ids] @ vals)
        self._crpp[cluster_id] += -2.0 * dot + w2
        self._ss[cluster_id] -= w2
        self._rep[cluster_id, ids] -= vals
        self._sizes[cluster_id] -= 1
        if self._sizes[cluster_id] == 0:
            self._rep[cluster_id, :] = 0.0
            self._crpp[cluster_id] = 0.0
            self._ss[cluster_id] = 0.0

    def best_gain(self, doc_id: str) -> Tuple[int, float]:
        ids, vals = self._doc_ids[doc_id], self._doc_vals[doc_id]
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

    def members(self) -> List[List[str]]:
        return [list(members.keys()) for members in self._members]

    def self_similarity(self, doc_id: str) -> float:
        return self._doc_w2[doc_id]

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
