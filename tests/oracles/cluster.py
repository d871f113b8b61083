"""Cluster state with representative-based O(1) average similarity.

The paper-literal, one-cluster, dict-vector version of Section 4.2
(clustering index terms) and 4.4 (efficient calculation using cluster
representatives, Eq. 19-26). The library keeps this state for all K
clusters at once in the engine and publishes it as an
:class:`~repro.core.engines.EngineView`; this class is the oracle the
repair and reader parity suites build that state with from scratch.

A cluster maintains:

* ``representative`` — ``c⃗_p = Σ_{d∈C_p} w⃗_d`` (Eq. 19-20, where
  ``w⃗_d = (Pr(d)/len_d)·d⃗`` is the weighted document vector),
* ``self_similarity`` — ``cr_sim(C_p, C_p) = c⃗_p · c⃗_p`` (Eq. 21),
  maintained incrementally on add/remove,
* ``ss`` — ``Σ_{d∈C_p} sim(d, d)`` (Eq. 23),

from which the intra-cluster average similarity (Eq. 24) is

    avg_sim(C_p) = (cr_sim(C_p,C_p) - ss(C_p)) / (|C_p|·(|C_p|-1))

and the *what-if-appended* value (Eq. 26) is one sparse dot product.
"""

from __future__ import annotations

from typing import Dict, List

from repro.exceptions import UnknownDocumentError

from .sparse import SparseVector


class Cluster:
    """A mutable document cluster with representative-based accounting.

    Membership is tracked as ``doc_id -> w⃗_d`` so removal does not need
    an external vector lookup, mirroring the paper's requirement that
    append *and* delete be O(doc terms).
    """

    __slots__ = (
        "cluster_id",
        "_members",
        "_representative",
        "_self_similarity",
        "_ss",
    )

    def __init__(self, cluster_id: int) -> None:
        self.cluster_id = cluster_id
        self._members: Dict[str, SparseVector] = {}
        self._representative = SparseVector()
        self._self_similarity = 0.0  # cr_sim(C_p, C_p), Eq. 21
        self._ss = 0.0               # ss(C_p), Eq. 23

    # -- membership -----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._members

    def member_ids(self) -> List[str]:
        """Document ids in insertion order."""
        return list(self._members.keys())

    def member_vector(self, doc_id: str) -> SparseVector:
        try:
            return self._members[doc_id]
        except KeyError:
            raise UnknownDocumentError(
                f"document {doc_id!r} not in cluster {self.cluster_id}"
            ) from None

    @property
    def is_empty(self) -> bool:
        return not self._members

    # -- accounting (Eq. 19-24) -------------------------------------------

    @property
    def representative(self) -> SparseVector:
        """``c⃗_p`` (Eq. 19-20). Treat as read-only."""
        return self._representative

    @property
    def self_similarity(self) -> float:
        """``cr_sim(C_p, C_p)`` (Eq. 21-22), incrementally maintained."""
        return self._self_similarity

    @property
    def ss(self) -> float:
        """``ss(C_p) = Σ sim(d, d)`` (Eq. 23)."""
        return self._ss

    def avg_sim(self) -> float:
        """Intra-cluster average similarity (Eq. 24); 0 for |C| < 2."""
        n = len(self._members)
        if n < 2:
            return 0.0
        return (self._self_similarity - self._ss) / (n * (n - 1))

    def index_contribution(self) -> float:
        """This cluster's term of the clustering index ``G`` (Eq. 17)."""
        return self.size * self.avg_sim()

    # -- mutation ------------------------------------------------------------

    def add(self, doc_id: str, weighted_vector: SparseVector) -> None:
        """Append one document. O(nnz of the document vector)."""
        if doc_id in self._members:
            raise ValueError(
                f"document {doc_id!r} already in cluster {self.cluster_id}"
            )
        w_dot_rep = self._representative.dot(weighted_vector)
        w_dot_w = weighted_vector.dot(weighted_vector)
        # (c⃗+w⃗)·(c⃗+w⃗) = c⃗·c⃗ + 2·c⃗·w⃗ + w⃗·w⃗
        self._self_similarity += 2.0 * w_dot_rep + w_dot_w
        self._ss += w_dot_w
        self._representative.add_scaled(weighted_vector, 1.0)
        self._members[doc_id] = weighted_vector

    def remove(self, doc_id: str) -> SparseVector:
        """Remove one document, returning its weighted vector."""
        try:
            weighted_vector = self._members.pop(doc_id)
        except KeyError:
            raise UnknownDocumentError(
                f"document {doc_id!r} not in cluster {self.cluster_id}"
            ) from None
        w_dot_rep = self._representative.dot(weighted_vector)
        w_dot_w = weighted_vector.dot(weighted_vector)
        # (c⃗-w⃗)·(c⃗-w⃗) = c⃗·c⃗ - 2·c⃗·w⃗ + w⃗·w⃗ with c⃗ the *old* representative
        self._self_similarity += -2.0 * w_dot_rep + w_dot_w
        self._ss -= w_dot_w
        self._representative.add_scaled(weighted_vector, -1.0)
        if not self._members:
            # reset float residue so an emptied cluster is exactly zero
            self._representative = SparseVector()
            self._self_similarity = 0.0
            self._ss = 0.0
        return weighted_vector

    def clear(self) -> None:
        """Remove all members."""
        self._members.clear()
        self._representative = SparseVector()
        self._self_similarity = 0.0
        self._ss = 0.0

    # -- what-if queries (Eq. 25-26) -------------------------------------------

    def avg_sim_if_added(self, weighted_vector: SparseVector) -> float:
        """``avg_sim(C_p ∪ {d_q})`` via Eq. 26 — one sparse dot product.

        For an empty cluster the result is 0 (a singleton has no pairs).
        """
        n = len(self._members)
        if n == 0:
            return 0.0
        cr_pq = self._representative.dot(weighted_vector)
        return (
            (self._self_similarity + 2.0 * cr_pq - self._ss)
            / (n * (n + 1))
        )

    def gain_if_added(self, weighted_vector: SparseVector) -> float:
        """Increase of intra-cluster similarity if the doc is appended.

        This is the assignment criterion of Section 4.3 step 1(b):
        ``avg_sim(C_p ∪ {d}) - avg_sim(C_p)``.
        """
        return self.avg_sim_if_added(weighted_vector) - self.avg_sim()

    def g_gain_if_added(self, weighted_vector: SparseVector) -> float:
        """Increase of this cluster's ``G`` term, ``Δ(|C_p|·avg_sim(C_p))``.

        With ``s = Σ_{d_i∈C_p} sim(d_q, d_i) = c⃗_p·w⃗_q`` and ``P`` the sum
        of intra-cluster pair similarities, appending ``d_q`` changes the
        contribution ``|C_p|·avg_sim`` by ``2(s(n-1) - P)/(n(n-1))``
        (``2s`` for a singleton). This is the greedy-ascent criterion on
        the paper's clustering index (Eq. 17); it is positive exactly
        when the document's mean similarity to the members exceeds half
        the current average similarity.
        """
        n = len(self._members)
        if n == 0:
            return 0.0
        s = self._representative.dot(weighted_vector)
        if n == 1:
            return 2.0 * s
        pair_sum = (self._self_similarity - self._ss) / 2.0
        return 2.0 * (s * (n - 1) - pair_sum) / (n * (n - 1))

    def avg_sim_if_removed(self, doc_id: str) -> float:
        """``avg_sim(C_p \\ {d_q})`` — the deletion counterpart of Eq. 26."""
        weighted_vector = self.member_vector(doc_id)
        n = len(self._members)
        if n <= 2:
            return 0.0
        cr_pq = self._representative.dot(weighted_vector)
        w_dot_w = weighted_vector.dot(weighted_vector)
        new_self = self._self_similarity - 2.0 * cr_pq + w_dot_w
        new_ss = self._ss - w_dot_w
        return (new_self - new_ss) / ((n - 1) * (n - 2))

    # -- maintenance -------------------------------------------------------------

    def refresh(self) -> None:
        """Recompute ``cr_sim(C_p,C_p)`` and ``ss`` from scratch.

        Incremental maintenance accumulates float error linear in the
        number of mutations; the clustering loop calls this once per
        iteration, which keeps drift far below similarity magnitudes.
        """
        representative = self._representative
        self._self_similarity = representative.dot(representative)
        self._ss = sum(w.dot(w) for w in self._members.values())

    def rebuild_from_members(
        self, vectors: Dict[str, SparseVector]
    ) -> None:
        """Re-weight every member with fresh vectors (after a stats update).

        Used by the warm-start path of Section 5.2: membership survives
        across windows but ``Pr(d)`` and ``idf`` moved, so the
        representative must be rebuilt from the new weighted vectors.
        Members absent from ``vectors`` are dropped (expired documents).
        """
        surviving = [doc_id for doc_id in self._members if doc_id in vectors]
        self.clear()
        for doc_id in surviving:
            self.add(doc_id, vectors[doc_id])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(id={self.cluster_id}, size={self.size}, "
            f"avg_sim={self.avg_sim():.3e})"
        )
