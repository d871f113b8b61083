"""Immutable versioned cluster snapshots — the service's read side.

A :class:`ClusterSnapshot` is everything a reader needs to answer
queries against one committed batch, precomputed into plain numpy
arrays at publish time:

* the compacted snapshot term space (sorted unique term ids of the
  active documents) with the novelty idf (Eq. 14) of every term,
* a dense ``K × n_terms`` matrix of cluster representatives
  ``c⃗_p = Σ_{d∈C_p} w⃗_d`` (Eq. 19-20) aggregated from the batch CSR
  rows of :meth:`~repro.vectors.tfidf.NoveltyTfidfWeighter.weighted_arrays`,
* the per-cluster ``cr_sim(C_p, C_p)`` / ``ss(C_p)`` aggregates
  (Eq. 21-23) and the affine gain coefficients ``(a_p, b_p)`` of
  Eq. 25-26, so :meth:`assign` is one dense mat-vec plus an argmax,
* a :class:`~repro.forgetting.FrozenStatistics` view of the decayed
  probability tables, so idf queries never touch live statistics.

Snapshots are *immutable* (frozen dataclass, numpy arrays marked
read-only) and *versioned*: ``version`` equals the durability journal's
batch sequence, so snapshot N is exactly the state after batch N — the
property the isolation suite checks against a batch-mode replay.
Because a snapshot shares nothing mutable with the writer, any number
of threads can query one concurrently, lock-free, while the writer
builds its successor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from .._typing import FloatArray, IntArray
from ..core.engines.base import affine_gain_coefficients
from ..corpus.document import Document
from ..exceptions import ConfigurationError
from ..forgetting.frozen import FrozenStatistics
from ..obs import Span
from ..vectors.tfidf import NoveltyTfidfWeighter

if TYPE_CHECKING:
    from ..core.incremental import IncrementalClusterer
    from ..text.pipeline import TextPipeline
    from ..text.vocabulary import Vocabulary

#: Things :meth:`ClusterSnapshot.assign` scores: a Document, a raw
#: ``{term_id: count}`` mapping, or text (needs a pipeline+vocabulary).
Query = Union[Document, Mapping[int, int], str]


@dataclass(frozen=True)
class QueryAssignment:
    """Answer of :meth:`ClusterSnapshot.assign` for one query."""

    #: Winning cluster id, or ``None`` when no cluster gains (outlier).
    cluster_id: Optional[int]
    #: The winning affine gain (Eq. 25-26); <= 0.0 for outliers.
    gain: float
    #: Version of the snapshot that answered.
    version: int

    @property
    def is_outlier(self) -> bool:
        return self.cluster_id is None


@dataclass(frozen=True)
class ClusterInfo:
    """One row of :meth:`ClusterSnapshot.top_clusters`."""

    cluster_id: int
    size: int
    #: The cluster's ``|C_p|·avg_sim`` term of ``G`` (Eq. 17, 24).
    contribution: float


@dataclass(frozen=True)
class SnapshotStats:
    """Summary counters of one snapshot (:meth:`ClusterSnapshot.stats`)."""

    version: int
    at_time: Optional[float]
    active_documents: int
    non_empty_clusters: int
    outliers: int
    clustering_index: float
    tdw: float
    terms: int
    k: int


@dataclass(frozen=True)
class ClusterSnapshot:
    """Point-in-time, read-optimized view of the clusterer state.

    Build one with :meth:`from_clusterer` (the service does this in its
    commit hook); query it with :meth:`assign`, :meth:`top_clusters`,
    :meth:`members`, and :meth:`stats` — all pure reads over the frozen
    arrays, safe from any thread.
    """

    #: Monotonic publish number == the durability journal sequence.
    version: int
    #: Logical clock τ of the state (``None`` for a never-fed state).
    at_time: Optional[float]
    k: int
    criterion: str
    #: Member doc ids per cluster slot (sorted within each cluster).
    clusters: Tuple[Tuple[str, ...], ...]
    outliers: Tuple[str, ...]
    clustering_index: float
    frozen: FrozenStatistics
    #: Sorted unique term ids of the snapshot column space.
    term_ids: IntArray
    #: Novelty idf per snapshot term (aligned with ``term_ids``).
    idf: FloatArray
    #: Dense ``k × n_terms`` representative matrix (Eq. 19-20).
    representatives: FloatArray
    sizes: IntArray
    crpp: FloatArray
    ss: FloatArray
    gain_a: FloatArray
    gain_b: FloatArray
    #: Optional text front-end for ``assign("raw text")`` queries.
    vocabulary: Optional["Vocabulary"] = None
    pipeline: Optional["TextPipeline"] = None

    def __post_init__(self) -> None:
        for array in (
            self.term_ids, self.idf, self.representatives,
            self.sizes, self.crpp, self.ss, self.gain_a, self.gain_b,
        ):
            array.setflags(write=False)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_clusterer(
        cls,
        version: int,
        clusterer: "IncrementalClusterer",
        vocabulary: Optional["Vocabulary"] = None,
        pipeline: Optional["TextPipeline"] = None,
    ) -> "ClusterSnapshot":
        """Freeze ``clusterer``'s committed state as snapshot ``version``.

        Must be called from the (single) writer with no batch in
        flight — the commit hook is exactly that point. The build cost
        is one pass over the active documents (the same CSR
        vectorisation a clustering run starts with) plus a dense
        scatter-add into the representative matrix.
        """
        with Span(clusterer.recorder, "service.snapshot_build",
                  {"version": version}):
            statistics = clusterer.statistics
            frozen = statistics.freeze()
            assignment = clusterer.assignments()
            k = clusterer.kmeans.k
            criterion = clusterer.kmeans.criterion
            documents = statistics.documents()

            member_lists: List[List[str]] = [[] for _ in range(k)]
            for doc_id, cluster_id in assignment.items():
                member_lists[cluster_id].append(doc_id)
            clusters = tuple(
                tuple(sorted(members)) for members in member_lists
            )

            weighter = NoveltyTfidfWeighter(statistics)
            arrays = weighter.weighted_arrays(documents)
            doc_ids, indptr, _, data = arrays.csr_parts()
            snapshot_terms, columns = arrays.columns()
            idf = frozen.idf_array(snapshot_terms)

            n_docs = len(doc_ids)
            n_terms = int(snapshot_terms.size)
            lens = np.diff(indptr)
            row_cluster = np.fromiter(
                (assignment.get(doc_id, -1) for doc_id in doc_ids),
                dtype=np.int64, count=n_docs,
            )
            representatives = np.zeros((k, n_terms), dtype=np.float64)
            nnz_cluster = np.repeat(row_cluster, lens)
            assigned_nnz = nnz_cluster >= 0
            np.add.at(
                representatives,
                (nnz_cluster[assigned_nnz], columns[assigned_nnz]),
                data[assigned_nnz],
            )
            row_self = arrays.self_similarities()
            assigned_rows = row_cluster >= 0
            ss = np.bincount(
                row_cluster[assigned_rows],
                weights=row_self[assigned_rows],
                minlength=k,
            )
            sizes = np.bincount(
                row_cluster[assigned_rows], minlength=k
            ).astype(np.int64)
            crpp = np.einsum("ij,ij->i", representatives, representatives)

            gain_a = np.zeros(k, dtype=np.float64)
            gain_b = np.zeros(k, dtype=np.float64)
            for cluster_id in range(k):
                a, b = affine_gain_coefficients(
                    criterion,
                    int(sizes[cluster_id]),
                    float(crpp[cluster_id]),
                    float(ss[cluster_id]),
                )
                gain_a[cluster_id] = a
                gain_b[cluster_id] = b

            last = clusterer.last_result
            if last is not None:
                clustering_index = last.clustering_index
                outliers = last.outliers
            else:
                # recovered/fresh state without a fit in history: G from
                # the rebuilt aggregates (the engines' post-refresh sum)
                multi = sizes > 1
                contributions = np.where(
                    multi,
                    (crpp - ss) / np.maximum(sizes - 1, 1),
                    0.0,
                )
                clustering_index = float(contributions.sum())
                outliers = ()

        return cls(
            version=int(version),
            at_time=statistics.now,
            k=k,
            criterion=criterion,
            clusters=clusters,
            outliers=tuple(outliers),
            clustering_index=clustering_index,
            frozen=frozen,
            term_ids=np.ascontiguousarray(snapshot_terms),
            idf=np.ascontiguousarray(idf),
            representatives=representatives,
            sizes=sizes,
            crpp=np.ascontiguousarray(crpp),
            ss=np.ascontiguousarray(ss),
            gain_a=gain_a,
            gain_b=gain_b,
            vocabulary=vocabulary,
            pipeline=pipeline,
        )

    # -- queries ---------------------------------------------------------

    def assign(self, query: Query) -> QueryAssignment:
        """Score ``query`` against every cluster; pure read, lock-free.

        The query is weighted exactly like a unit-weight document
        arriving at the snapshot clock: ``w⃗_q = (Pr(q)/len_q)·d⃗_q``
        with ``Pr(q) = 1/tdw`` (a just-arrived document has ``dw = 1``)
        and the snapshot's frozen idf table (terms unseen at freeze
        time contribute nothing, exactly as in a live fit). The winning
        cluster maximises the affine gain ``a_p·(c⃗_p·w⃗_q) + b_p``
        (Eq. 25-26, ties to the lowest cluster id like every engine);
        a non-positive best gain means outlier.
        """
        counts, length = self._query_counts(query)
        outlier = QueryAssignment(
            cluster_id=None, gain=0.0, version=self.version
        )
        if (
            not counts
            or length <= 0
            or self.frozen.tdw <= 0.0
            or self.term_ids.size == 0
        ):
            return outlier
        ids = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
        values = np.fromiter(
            counts.values(), dtype=np.float64, count=len(counts)
        )
        positions = np.searchsorted(self.term_ids, ids)
        positions = np.minimum(positions, self.term_ids.size - 1)
        found = self.term_ids[positions] == ids
        if not found.any():
            return outlier
        scale = (1.0 / self.frozen.tdw) / length
        components = (
            values[found] * self.idf[positions[found]] * scale
        )
        live = components != 0.0
        if not live.any():
            return outlier
        cr = self.representatives[:, positions[found][live]] @ components[live]
        gains = self.gain_a * cr + self.gain_b
        best = int(np.argmax(gains))
        gain = float(gains[best])
        if gain <= 0.0:
            return outlier
        return QueryAssignment(
            cluster_id=best, gain=gain, version=self.version
        )

    def top_clusters(self, n: int = 10) -> List[ClusterInfo]:
        """The ``n`` largest non-empty clusters (size desc, id asc)."""
        multi = self.sizes > 1
        contributions = np.where(
            multi,
            (self.crpp - self.ss) / np.maximum(self.sizes - 1, 1),
            0.0,
        )
        ranked = sorted(
            (
                ClusterInfo(
                    cluster_id=cluster_id,
                    size=int(self.sizes[cluster_id]),
                    contribution=float(contributions[cluster_id]),
                )
                for cluster_id in range(self.k)
                if self.sizes[cluster_id] > 0
            ),
            key=lambda info: (-info.size, info.cluster_id),
        )
        return ranked[: max(n, 0)]

    def members(self, cluster_id: int) -> Tuple[str, ...]:
        """Member doc ids of one cluster slot (sorted)."""
        if not 0 <= cluster_id < self.k:
            raise ConfigurationError(
                f"cluster id {cluster_id} outside [0, {self.k})"
            )
        return self.clusters[cluster_id]

    def stats(self) -> SnapshotStats:
        """Summary counters of this snapshot."""
        return SnapshotStats(
            version=self.version,
            at_time=self.at_time,
            active_documents=self.frozen.size,
            non_empty_clusters=int((self.sizes > 0).sum()),
            outliers=len(self.outliers),
            clustering_index=self.clustering_index,
            tdw=self.frozen.tdw,
            terms=int(self.term_ids.size),
            k=self.k,
        )

    # -- helpers ---------------------------------------------------------

    def _query_counts(self, query: Query) -> Tuple[Dict[int, float], float]:
        """Normalise a query to ``({term_id: count}, length)``.

        Text queries run the attached pipeline and look terms up
        *without interning* (:meth:`Vocabulary.get`), so reader threads
        never mutate shared state; terms the vocabulary has never seen
        still count toward the length, as they would for a real
        document whose unseen terms carry idf 0.
        """
        if isinstance(query, Document):
            return (
                {t: float(c) for t, c in query.term_counts.items()},
                float(query.length),
            )
        if isinstance(query, str):
            if self.pipeline is None or self.vocabulary is None:
                raise ConfigurationError(
                    "text queries need the snapshot's text front-end; "
                    "build the snapshot with vocabulary= and pipeline= "
                    "(repro.api.open_stream wires both)"
                )
            raw = self.pipeline.term_frequencies(query)
            length = float(sum(raw.values()))
            counts: Dict[int, float] = {}
            for term, count in raw.items():
                term_id = self.vocabulary.get(term)
                if term_id >= 0:
                    counts[term_id] = counts.get(term_id, 0.0) + count
            return counts, length
        counts = {int(t): float(c) for t, c in query.items()}
        return counts, float(sum(counts.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterSnapshot(version={self.version}, "
            f"t={self.at_time}, docs={self.frozen.size}, "
            f"clusters={int((self.sizes > 0).sum())}/{self.k}, "
            f"G={self.clustering_index:.3e})"
        )
