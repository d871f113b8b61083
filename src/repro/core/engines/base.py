"""The :class:`Engine` protocol and the gain arithmetic engines share.

An *engine* is the numerical backend of the extended K-means
(:class:`~repro.core.NoveltyKMeans`): it owns the per-cluster state of
Section 4.4's efficient calculation —

* the cluster representative ``c⃗_p = Σ_{d∈C_p} w⃗_d`` (Eq. 19-20),
* ``cr_sim(C_p, C_p) = c⃗_p · c⃗_p`` (Eq. 21-22), maintained
  incrementally on every append/delete,
* ``ss(C_p) = Σ_{d∈C_p} sim(d, d)`` (Eq. 23),

from which the intra-cluster average similarity (Eq. 24) and the
*what-if-appended* gain (Eq. 25-26, one dot product against the
representative) follow in O(1) per cluster, and which
:meth:`Engine.freeze` copies into an :class:`EngineView` for readers.
The clustering loop itself lives exactly once in
:class:`~repro.core.NoveltyKMeans`; engines only answer state queries
and apply membership mutations, so a new engine (GPU, distributed,
approximate) plugs in without touching the algorithm.

Each ``fit`` builds its engine as ``cls(k, vectors, criterion)``,
where ``cls`` is the engine class and ``vectors`` is the fit's CSR
batch (:class:`~repro.vectors.arrays.WeightedVectorArrays`) of weighted
document vectors ``w⃗_d = (Pr(d)/len_d)·d⃗`` (Eq. 12-16) and
``criterion`` is ``"g"`` or ``"avg"`` (see
:class:`~repro.core.NoveltyKMeans`). ``NoveltyKMeans(engine=...)`` and
the clusterers' ``engine=`` take the class itself
(:class:`EngineClass`); its ``name`` tags spans and checkpoints.
Inside a fit a document *is* its row of that batch: every engine call
takes and returns rows, and doc ids come back only when the fit builds
its :class:`~repro.core.ClusteringResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from ..._typing import FloatArray, IntArray
from ...vectors.arrays import WeightedVectorArrays

#: Gain reported for a document whose vector is empty: it is similar to
#: nothing (including itself), so no cluster can ever gain from it.
NO_GAIN = float("-inf")


def affine_gain_coefficients(
    criterion: str, size: int, crpp: float, ss: float
) -> Tuple[float, float]:
    """Coefficients ``(a, b)`` of the affine gain form (Eq. 25-26).

    The what-if-appended gain of any document ``d_q`` against a cluster
    ``C_p`` is affine in the one quantity that depends on the document,
    ``cr = cr_sim(C_p, d_q) = c⃗_p · w⃗_q``::

        gain(C_p, d_q) = a_p * cr + b_p

    with, for criterion ``"g"`` (Δ of the ``|C_p|·avg_sim`` term of
    Eq. 17, ``n = |C_p|``)::

        a = 2/n                  b = -(crpp - ss) / (n(n-1))

    and for criterion ``"avg"`` (Δ of ``avg_sim`` itself, Eq. 24)::

        a = 2/(n(n+1))           b = (crpp-ss)/(n(n+1)) - avg_cur

    where ``crpp = cr_sim(C_p, C_p)`` (Eq. 21-22) and ``ss = ss(C_p)``
    (Eq. 23), with the ``n ∈ {0, 1}`` degeneracies of Eq. 24 folded in
    (an empty cluster gains nothing: ``a = b = 0``). Because weighted
    vectors are non-negative, ``a >= 0`` always — the gain is
    non-decreasing in ``cr``.
    """
    if size <= 0:
        return 0.0, 0.0
    if criterion == "g":
        if size == 1:
            return 2.0, 0.0
        return (
            2.0 / size,
            -(crpp - ss) / (size * (size - 1)),
        )
    diff = crpp - ss
    denominator = size * (size + 1)
    avg_cur = diff / (size * (size - 1)) if size > 1 else 0.0
    return 2.0 / denominator, diff / denominator - avg_cur


def best_affine_gain(
    gain_a: FloatArray,
    gain_b: FloatArray,
    cr: FloatArray,
    out: Optional[FloatArray] = None,
) -> Tuple[int, float]:
    """``(p, gain)`` maximising ``a_p·cr_p + b_p`` (Eq. 25-26), ties to
    the lowest ``p``; ``cr[p] = cr_sim(C_p, d_q)``, ``out`` an optional
    K-sized buffer. Engine gain queries and snapshot queries decide
    through it; the assignment sweep inlines it to score a member's own
    cluster with its removal-adjusted gain."""
    gains = np.multiply(gain_a, cr, out=out)
    gains += gain_b
    best = int(gains.argmax())
    return best, float(gains[best])


@dataclass(frozen=True)
class EngineView:
    """Read-only copy of an engine's per-cluster state (:meth:`Engine.freeze`):
    representatives (Eq. 19-20), Eq. 21-23 aggregates, Eq. 25-26 gain
    coefficients, Eq. 17/24 contributions and ``G``."""

    criterion: str
    #: Sorted term ids numbering the representative columns.
    term_ids: IntArray
    #: ``K × len(term_ids)`` cluster representatives ``c⃗_p``.
    representatives: FloatArray
    sizes: IntArray
    crpp: FloatArray
    ss: FloatArray
    gain_a: FloatArray
    gain_b: FloatArray
    #: Per-cluster ``|C_p|·avg_sim(C_p)`` terms of ``G`` (Eq. 17, 24).
    contributions: FloatArray
    #: The clustering index ``G`` (Eq. 17).
    clustering_index: float

    def __post_init__(self) -> None:
        for array in (
            self.term_ids, self.representatives, self.sizes, self.crpp,
            self.ss, self.gain_a, self.gain_b, self.contributions,
        ):
            array.setflags(write=False)

    @property
    def k(self) -> int:
        return int(self.sizes.size)

    @classmethod
    def empty(cls, k: int, criterion: str) -> "EngineView":
        """The view of ``k`` empty clusters over no terms."""
        zeros = np.zeros(k, dtype=np.float64)
        return cls(
            criterion=criterion,
            term_ids=np.zeros(0, dtype=np.int64),
            representatives=np.zeros((k, 0), dtype=np.float64),
            sizes=np.zeros(k, dtype=np.int64),
            crpp=zeros, ss=zeros, gain_a=zeros, gain_b=zeros,
            contributions=zeros, clustering_index=0.0,
        )


@runtime_checkable
class Engine(Protocol):
    """The state backend consumed by the extended K-means loop.

    All mutating calls keep Eq. 21-23's incremental bookkeeping exact:
    ``add``/``remove`` are O(nnz of the document vector), and the gain
    queries are O(K) plus one representative dot product (Eq. 26).
    :meth:`freeze` hands the state to readers as an :class:`EngineView`
    in O(K·T); the service's published snapshots are such views, so
    nothing outside the engine rebuilds representatives or aggregates.
    """

    def add(self, cluster_id: int, row: int) -> None:
        """Append batch row ``row`` to cluster ``cluster_id`` (Eq. 19-23
        update)."""

    def remove(self, cluster_id: int, row: int) -> None:
        """Delete ``row`` from cluster ``cluster_id`` (Eq. 19-23 update)."""

    def load(self, rows: IntArray, clusters: IntArray) -> None:
        """Bulk warm start (Section 5.2 step 3) of an engine holding no
        member: the state of one :meth:`add` of ``rows[i]`` to
        ``clusters[i]`` per ``i``, in order, followed by
        :meth:`refresh` — the same representatives, ``ss``, sizes and
        member order. Raises ``ConfigurationError``, changing nothing,
        for a cluster id outside ``[0, k)``."""

    def cluster_of(self, row: int) -> Optional[int]:
        """Cluster currently holding ``row`` (None when unassigned)."""

    def best_gain(self, row: int) -> Tuple[int, float]:
        """``(cluster_id, gain)`` of the largest-gain cluster (Eq. 25-26)."""

    def best_gains(self, rows: IntArray) -> Tuple[IntArray, FloatArray]:
        """Run one batched assignment sweep (Section 4.3 step 1).

        Equivalent to, for each of ``rows`` in order: remove it from its
        current cluster (if any), compute :meth:`best_gain`, and append
        it to the winning cluster when the gain is positive. Returns
        the int64 winning cluster and float64 gain per row (``-1`` and
        ``-inf`` for empty-vector rows). Batching the whole sweep lets
        vectorised engines answer it with matrix products instead of
        per-document dot products.
        """

    def sizes(self) -> List[int]:
        """``|C_p|`` per cluster."""

    def refresh(self) -> None:
        """Recompute Eq. 21 from the representative, clearing float drift."""

    def clustering_index(self) -> float:
        """The clustering index ``G`` (Eq. 17) over all clusters."""

    def contributions(self) -> List[float]:
        """Per-cluster ``|C_p|·avg_sim(C_p)`` terms of ``G`` (Eq. 17, 24)."""

    def members(self) -> List[IntArray]:
        """Member rows per cluster, in insertion order."""

    def self_similarity(self, row: int) -> float:
        """``sim(d, d) = w⃗_d · w⃗_d`` (the Eq. 23 summand)."""

    def freeze(self) -> EngineView:
        """Copy the per-cluster state for readers (after :meth:`refresh`)."""


class EngineClass(Protocol):
    """What ``NoveltyKMeans(engine=...)`` takes: a named engine class.

    An engine class satisfies it as written: its constructor serves as
    ``__call__`` and a ``name`` class attribute as ``name``. The
    annotated ``engine`` defaults are therefore the protocol-conformance
    check ``mypy --strict`` runs.
    """

    @property
    def name(self) -> str:
        """Tag written to ``kmeans`` spans and checkpoints."""

    def __call__(
        self, k: int, vectors: WeightedVectorArrays, criterion: str
    ) -> Engine:
        """Build the engine for one fit over the CSR batch ``vectors``."""
