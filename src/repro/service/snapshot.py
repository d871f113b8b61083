"""Immutable versioned cluster snapshots — the service's read side.

A :class:`ClusterSnapshot` is everything a reader needs to answer
queries against one committed batch:

* the :class:`~repro.core.engines.EngineView` the committing fit froze
  (representatives, Eq. 19-20; ``cr_sim``/``ss``, Eq. 21-23; the
  Eq. 25-26 gain coefficients; the contributions and ``G``), shared
  rather than rebuilt, so publishing never re-vectorises a document;
* a :class:`~repro.forgetting.FrozenStatistics` view of the decayed
  probability tables and the novelty idf (Eq. 14) of the view's terms,
  so queries never touch live statistics;
* the sorted member and outlier tuples.

:meth:`ClusterSnapshot.assign` scores a query with the engine's own
:func:`~repro.core.engines.best_affine_gain`, the assignment sweep's
gain arithmetic;
:meth:`ClusterSnapshot.search` ranks clusters by the cosine between a
text query and the same representatives.

Snapshots are *immutable* (frozen dataclass, numpy arrays marked
read-only) and *versioned*: ``version`` equals the durability journal's
batch sequence, so snapshot N is exactly the state after batch N — the
property the isolation suite checks against a batch-mode replay.
Because a snapshot shares nothing mutable with the writer, any number
of threads can query one concurrently, lock-free, while the writer
builds its successor.
"""

from __future__ import annotations

import math
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
from .._validation import require_positive_int
from ..core.engines import EngineView, best_affine_gain
from ..corpus.document import Document
from ..exceptions import ConfigurationError
from ..forgetting.frozen import FrozenStatistics
from ..obs import Span, resolve

if TYPE_CHECKING:
    from ..core.incremental import IncrementalClusterer
    from ..text.pipeline import TextPipeline
    from ..text.vocabulary import Vocabulary

#: Things :meth:`ClusterSnapshot.assign` scores: a Document, a raw
#: ``{term_id: count}`` mapping, or text (needs a pipeline+vocabulary).
Query = Union[Document, Mapping[int, float], str]


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
class SearchHit:
    """One cluster retrieved by :meth:`ClusterSnapshot.search`."""

    cluster_id: int
    #: Cosine between the query and the representative, in (0, 1].
    score: float
    size: int
    #: Query terms the cluster carries, largest contribution first.
    matched_terms: Tuple[str, ...]


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
    commit hook); query it with :meth:`assign`, :meth:`search`,
    :meth:`top_clusters`, :meth:`members`, and :meth:`stats` — all pure
    reads over the frozen arrays, safe from any thread.
    """

    #: Monotonic publish number == the durability journal sequence.
    version: int
    #: Logical clock τ of the state (``None`` for a never-fed state).
    at_time: Optional[float]
    #: Member doc ids per cluster slot (sorted within each cluster).
    clusters: Tuple[Tuple[str, ...], ...]
    #: Active documents no cluster holds (sorted).
    outliers: Tuple[str, ...]
    frozen: FrozenStatistics
    #: The engine's cluster state the committing fit ended with.
    view: EngineView
    #: Novelty idf per view term (aligned with ``view.term_ids``).
    idf: FloatArray
    #: Optional text front-end for ``assign("raw text")`` queries.
    vocabulary: Optional["Vocabulary"] = None
    pipeline: Optional["TextPipeline"] = None

    def __post_init__(self) -> None:
        self.idf.setflags(write=False)

    @property
    def k(self) -> int:
        return self.view.k

    @property
    def clustering_index(self) -> float:
        """``G`` (Eq. 17) of the committed clustering."""
        return self.view.clustering_index

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
        flight — the commit hook is exactly that point. The cluster
        state is the clusterer's :meth:`~repro.core.incremental.
        IncrementalClusterer.view`, shared as is; the build adds the
        frozen statistics, the idf of the view's terms, and the sorted
        member and outlier tuples.
        """
        with Span(clusterer.recorder, "service.snapshot_build",
                  {"version": version}):
            statistics = clusterer.statistics
            frozen = statistics.freeze()
            view = clusterer.view()
            assignment = clusterer.assignments()
            member_lists: List[List[str]] = [[] for _ in range(view.k)]
            for doc_id, cluster_id in assignment.items():
                member_lists[cluster_id].append(doc_id)
            return cls(
                version=int(version),
                at_time=statistics.now,
                clusters=tuple(
                    tuple(sorted(members)) for members in member_lists
                ),
                outliers=tuple(sorted(
                    doc_id for doc_id in statistics.doc_ids()
                    if doc_id not in assignment
                )),
                frozen=frozen,
                view=view,
                idf=frozen.idf_array(view.term_ids),
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
        (Eq. 25-26, through the engine's own
        :func:`~repro.core.engines.best_affine_gain`); a non-positive
        best gain means outlier.

        Mapping queries follow :class:`~repro.corpus.Document`'s rule:
        zero counts are dropped, and a negative or non-finite count
        raises :class:`~repro.exceptions.ConfigurationError`.

        Timed as the ``snapshot.assign`` span of the ambient recorder,
        tagged ``query`` = ``text``, ``document`` or ``counts``.
        """
        kind = ("text" if isinstance(query, str) else
                "document" if isinstance(query, Document) else "counts")
        with Span(resolve(None), "snapshot.assign", {"query": kind}):
            return self._assign(query)

    def _assign(self, query: Query) -> QueryAssignment:
        ids, values, length = self._query_counts(query)
        outlier = QueryAssignment(
            cluster_id=None, gain=0.0, version=self.version
        )
        term_ids = self.view.term_ids
        if (
            ids.size == 0
            or length <= 0
            or self.frozen.tdw <= 0.0
            or term_ids.size == 0
        ):
            return outlier
        positions = np.searchsorted(term_ids, ids)
        positions = np.minimum(positions, term_ids.size - 1)
        found = term_ids[positions] == ids
        scale = (1.0 / self.frozen.tdw) / length
        components = (
            values[found] * self.idf[positions[found]] * scale
        )
        live = components != 0.0
        if not live.any():
            return outlier
        view = self.view
        best, gain = best_affine_gain(
            view.gain_a, view.gain_b,
            view.representatives[:, positions[found][live]]
            @ components[live],
        )
        if gain <= 0.0:
            return outlier
        return QueryAssignment(
            cluster_id=best, gain=gain, version=self.version
        )

    def search(self, query: str, limit: int = 5) -> List[SearchHit]:
        """Top-``limit`` clusters for a text ``query``, best first.

        The query is embedded like a text query to :meth:`assign` (the
        attached pipeline, terms looked up without interning), weighted
        ``tf·idf`` with the frozen novelty idf (Eq. 14), unit-normalised
        over all its known terms, and scored by cosine against each
        representative ``c⃗_p`` (Eq. 19-20), whose norm is
        ``√cr_sim(C_p, C_p)`` (Eq. 21). Because the
        representatives sum ``Pr(d)``-weighted members, recently active
        clusters score higher for equally matching content. Clusters
        sharing no term with the query are omitted, so fewer than
        ``limit`` hits (or none) may return; ties go to the lower
        cluster id, and matched-term ties to the lower term id.
        """
        require_positive_int("limit", limit)
        ids, values, _ = self._query_counts(query)
        if ids.size == 0:
            return []
        order = np.argsort(ids)
        ids = ids[order]
        weights = values[order] * self.frozen.idf_array(ids)
        norm = math.sqrt(float(weights @ weights))
        view = self.view
        term_ids = view.term_ids
        if norm <= 0.0 or term_ids.size == 0:
            return []
        positions = np.minimum(np.searchsorted(term_ids, ids),
                               term_ids.size - 1)
        found = (term_ids[positions] == ids) & (weights > 0.0)
        cols, q = positions[found], weights[found] / norm
        # per-term contributions c_pt·q_t; a row sums to the dot product
        contributions = view.representatives[:, cols] * q
        scores = contributions.sum(axis=1)
        live = np.flatnonzero((scores > 0.0) & (view.crpp > 0.0))
        scores = scores[live] / np.sqrt(view.crpp[live])
        # a stable sort of the ascending ids keeps ties in id order
        ranked = np.argsort(-scores, kind="stable")[:limit]
        assert self.vocabulary is not None  # _query_counts checked it
        term = self.vocabulary.term
        matched_ids = ids[found].tolist()
        hits: List[SearchHit] = []
        for rank in ranked.tolist():
            p = int(live[rank])
            row = contributions[p]
            # cols ascend with the term ids, so the stable sort keeps
            # equal contributions in term-id order
            matched = [c for c in np.argsort(-row, kind="stable").tolist()
                       if row[c] > 0.0]
            hits.append(SearchHit(
                cluster_id=p,
                score=float(scores[rank]),
                size=int(view.sizes[p]),
                matched_terms=tuple(term(matched_ids[c]) for c in matched),
            ))
        return hits

    def top_clusters(self, n: int = 10) -> List[ClusterInfo]:
        """The ``n`` largest non-empty clusters (size desc, id asc)."""
        sizes, contributions = self.view.sizes, self.view.contributions
        # a stable sort of the ascending ids keeps ties in id order
        ranked = sorted(np.flatnonzero(sizes).tolist(), key=lambda p: -sizes[p])
        return [
            ClusterInfo(p, int(sizes[p]), float(contributions[p]))
            for p in ranked[: max(n, 0)]
        ]

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
            non_empty_clusters=int((self.view.sizes > 0).sum()),
            outliers=len(self.outliers),
            clustering_index=self.clustering_index,
            tdw=self.frozen.tdw,
            terms=int(self.view.term_ids.size),
            k=self.k,
        )

    # -- helpers ---------------------------------------------------------

    def _query_counts(
        self, query: Query
    ) -> Tuple[IntArray, FloatArray, float]:
        """Normalise a query to ``(term ids, counts, length)``: int64
        ids and float64 counts, aligned and without zero counts.

        A document's row is taken as it is held.

        Text queries run the attached pipeline through its query memo
        (:meth:`TextPipeline.query_frequencies`), never the producer's,
        and look terms up *without interning* (:meth:`Vocabulary.lookup`),
        so reader threads never mutate the producer's state; terms the
        vocabulary has never seen still count toward the length, as they
        would for a real document whose unseen terms carry idf 0.
        """
        if isinstance(query, Document):
            return (query.term_ids.astype(np.int64),
                    query.counts.astype(np.float64), float(query.length))
        counts: Dict[int, float] = {}
        if isinstance(query, str):
            if self.pipeline is None or self.vocabulary is None:
                raise ConfigurationError(
                    "text queries need the snapshot's text front-end; "
                    "build the snapshot with vocabulary= and pipeline= "
                    "(repro.api.open_stream wires both)"
                )
            raw = self.pipeline.query_frequencies(query)
            length = float(sum(raw.values()))
            for term_id, count in zip(self.vocabulary.lookup(raw),
                                      raw.values()):
                if term_id is not None:
                    counts[term_id] = float(count)
            return _count_arrays(counts) + (length,)
        for term_id, count in query.items():
            value = float(count)
            if not math.isfinite(value) or value < 0.0:
                raise ConfigurationError(
                    f"term count {count!r} for term {term_id} must be a "
                    f"finite non-negative number"
                )
            if value > 0.0:
                counts[int(term_id)] = value
        return _count_arrays(counts) + (float(sum(counts.values())),)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterSnapshot(version={self.version}, "
            f"t={self.at_time}, docs={self.frozen.size}, "
            f"clusters={int((self.view.sizes > 0).sum())}/{self.k}, "
            f"G={self.clustering_index:.3e})"
        )


def _count_arrays(counts: Dict[int, float]) -> Tuple[IntArray, FloatArray]:
    """``counts``' keys and values as aligned int64 and float64 arrays."""
    n = len(counts)
    return (np.fromiter(counts.keys(), dtype=np.int64, count=n),
            np.fromiter(counts.values(), dtype=np.float64, count=n))
