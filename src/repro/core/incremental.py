"""Incremental and non-incremental clustering pipelines (paper Section 5.2).

:class:`IncrementalClusterer` is the paper's proposal: each arriving
batch (a "time window" of news) triggers

1. incorporation of the new documents into the statistics,
2. expiry of documents whose weight fell below ``ε = λ^γ``,
3. an incremental statistics update (Eq. 27-29), and
4. a warm-started run of the extended K-means, reusing the previous
   clustering's membership/representatives as the initial state.

:class:`NonIncrementalClusterer` is the baseline it is compared to in
Experiment 1: at every batch it recomputes all statistics from scratch
over the full (non-expired) archive and cold-starts the clustering from
random seeds.

Both expose the same ``process_batch`` interface and record per-phase
timings on the returned :class:`~repro.core.ClusteringResult`, which is
what the Table 1 benchmark measures.

**Batch ingestion is transactional** in both pipelines: a batch either
fully updates the state (statistics, assignments, archive, last result) or
leaves it exactly as it was. Rejections — a future-dated or duplicate
document, the cold-start guard, a clustering failure — restore the
pre-batch state, so the corrected batch can simply be re-sent.

Both pipelines emit structured observability events (phase spans,
batch counters, the warm-start reuse ratio) through :mod:`repro.obs`;
pass ``recorder=`` or install an ambient recorder to collect them.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..corpus.document import Document
from ..exceptions import AssignmentMismatchError, ClusteringError
from ..forgetting.backends import ColumnarStatisticsBackend, StatisticsBackend
from ..forgetting.model import ForgettingModel
from ..forgetting.statistics import CorpusStatistics
from ..obs import Recorder, Span, resolve
from .engines import EngineClass, EngineView, MatrixEngine
from .kmeans import NoveltyKMeans
from .result import ClusteringResult

#: Callback invoked with ``(batch, at_time)`` after a batch commits.
CommitHook = Callable[[List[Document], float], None]


class IncrementalClusterer:
    """Stateful on-line clusterer with incremental statistics + warm start.

    >>> model = ForgettingModel(half_life=7.0, life_span=14.0)
    >>> clusterer = IncrementalClusterer(model, k=4, seed=0)  # doctest: +SKIP
    >>> result = clusterer.process_batch(monday_docs, at_time=0.0)  # doctest: +SKIP

    The K-means settings (``k`` through ``seed``) mean the same as on
    :class:`~repro.core.NoveltyKMeans` and are shared with
    :class:`NonIncrementalClusterer`, so the two pipelines run with
    identical settings when given the same keywords. ``engine`` and
    ``statistics_backend`` are the classes the parity suites replace
    with their reference implementations. Applications should
    construct pipelines via :func:`repro.api.open_stream` (or
    :func:`repro.api.build_clusterer` for batch experiments).
    """

    def __init__(
        self,
        model: ForgettingModel,
        *,
        k: int,
        delta: float = 0.01,
        max_iterations: int = 30,
        seed: Optional[int] = None,
        warm_start: bool = True,
        rescue_outliers: bool = True,
        engine: EngineClass = MatrixEngine,
        statistics_backend: Callable[[], StatisticsBackend] = (
            ColumnarStatisticsBackend
        ),
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.model = model
        self.recorder = resolve(recorder)
        # rescue_outliers defaults on here (unlike NoveltyKMeans): under
        # warm starts an emerging topic would otherwise never obtain a
        # cluster slot; see NoveltyKMeans for the mechanism.
        self.kmeans = NoveltyKMeans(
            k=k,
            delta=delta,
            max_iterations=max_iterations,
            seed=seed,
            engine=engine,
            rescue_outliers=rescue_outliers,
            recorder=self.recorder,
        )
        self.warm_start = bool(warm_start)
        self.statistics = CorpusStatistics(
            model, recorder=self.recorder, backend=statistics_backend
        )
        #: the last committed batch's result; only this one is kept
        self.last_result: Optional[ClusteringResult] = None
        self._assignment: Dict[str, int] = {}
        # the last committed fit's final engine state; kept here rather
        # than on ClusteringResult so a result pins no K×T matrices
        self._view: Optional[EngineView] = None
        self._commit_hooks: List[CommitHook] = []

    def add_commit_hook(self, hook: CommitHook) -> None:
        """Register ``hook(batch, at_time)``, called after a batch commits.

        Hooks run only once the transactional ingestion has fully
        succeeded (statistics, assignments and ``last_result`` updated), so a
        hook observes exactly the batches the in-memory state contains
        — which is what lets :class:`repro.durability.Checkpointer`
        journal accepted batches without ever journaling a rolled-back
        one. A hook failure propagates to the caller; the batch itself
        stays committed.
        """
        self._commit_hooks.append(hook)

    def set_recorder(self, recorder: Optional[Recorder]) -> None:
        """Attach ``recorder`` to the pipeline and all its components.

        Useful after :func:`repro.persistence.load_checkpoint`, which
        builds the pipeline before a trace sink exists.
        """
        resolved = resolve(recorder)
        self.recorder = resolved
        self.kmeans.recorder = resolved
        self.statistics.recorder = resolved

    def process_batch(
        self, documents: Iterable[Document], at_time: float
    ) -> ClusteringResult:
        """Ingest a batch arriving at ``at_time`` and re-cluster.

        Returns the new clustering; ``result.timings`` holds the
        ``"statistics"`` (incremental update + expiry),
        ``"vectorisation"``, and ``"clustering"`` phase durations in
        seconds.

        The ingestion is transactional: if the batch is invalid, the
        cold-start guard fires, or the clustering itself fails, the
        statistics and assignments are restored to their pre-batch
        state before the exception propagates, so the same (corrected)
        documents can be re-sent with a later batch.
        """
        batch = list(documents)
        if not (self.warm_start and self._assignment):
            # cheap pre-check before any mutation: a cold start can
            # never succeed with fewer than k documents overall
            if self.statistics.size + len(batch) < self.kmeans.k:
                raise ClusteringError(
                    f"cold start needs at least k={self.kmeans.k} "
                    f"documents; have {self.statistics.size} active "
                    f"+ {len(batch)} new"
                )
        # transaction snapshot: clone() shares immutable documents and
        # only copies the backend's bookkeeping (weights, term masses,
        # document registry, insertion order) — far cheaper than the
        # decay pass observe() is about to do over the same entries
        snapshot = self.statistics.clone()
        previous_assignment = dict(self._assignment)
        try:
            with Span(self.recorder, "pipeline.statistics",
                      {"batch": len(batch)}) as stats_span:
                self.statistics.observe(batch, at_time)
                expired = self.statistics.expire()
                for doc in expired:
                    self._assignment.pop(doc.doc_id, None)

            active = self.statistics.documents()
            warm = self.warm_start and bool(self._assignment)
            if not warm and len(active) < self.kmeans.k:
                # step 2 can expire both old documents and backdated
                # batch members, so the pre-check above is not enough:
                # re-check the *active* count or NoveltyKMeans.fit
                # would raise after the statistics were mutated
                raise ClusteringError(
                    f"cold start needs at least k={self.kmeans.k} active "
                    f"documents after expiry at t={at_time}; have "
                    f"{len(active)} (life_span={self.model.life_span})"
                )
            if not active:
                raise ClusteringError(
                    f"no active documents at t={at_time} "
                    f"(all expired; life_span={self.model.life_span})"
                )
            initial = dict(self._assignment) if warm else None
            if self.recorder.enabled and initial is not None:
                self.recorder.gauge(
                    "pipeline.warm_start_reuse",
                    len(initial) / len(active),
                )
            with Span(self.recorder, "pipeline.clustering",
                      {"docs": len(active)}):
                result, view = self.kmeans.fit_frozen(
                    active, self.statistics, initial
                )
        except Exception:
            # roll the whole batch back: statistics, clock, and
            # assignments return to their pre-batch state
            self.statistics = snapshot
            self._assignment = previous_assignment
            if self.recorder.enabled:
                self.recorder.counter("pipeline.batches_rejected")
            raise
        self._assignment = result.assignments()
        self._view = view

        timings = dict(result.timings)
        timings["statistics"] = stats_span.duration
        result = dataclasses.replace(result, timings=timings)
        self.last_result = result
        if self.recorder.enabled:
            self.recorder.counter("pipeline.batches")
        for hook in self._commit_hooks:
            hook(batch, at_time)
        return result

    def restore_batch(
        self,
        documents: Iterable[Document],
        at_time: float,
        clusters: Sequence[int],
        *,
        before_expiry: bool = False,
    ) -> int:
        """Re-apply a committed batch from its durable record, with no
        fit: observe ``documents`` at ``at_time``, expire, then take the
        recorded assignment.

        ``clusters`` has one cluster id per active document after the
        expiry, in ``statistics.documents()`` order, −1 for none: what a
        log line records. With ``before_expiry`` it has one per document
        before the expiry instead, and the entries of the documents that
        expire are dropped: what a checkpoint records, whose clock may
        have moved past a document's life span with no expiry since
        (an empty window only advances the clock). Returns how many
        dropped entries named a cluster. The assignment is rebuilt
        cluster by cluster, each cluster's documents in that order: the
        order a fit lists them in, which the next warm start loads them
        in. A restored checkpoint is one such batch over a never-fed
        clusterer.

        No commit hook runs and :attr:`last_result` is left alone; the
        view is frozen from the assignment when it is next asked for
        (:meth:`view`). Like :meth:`process_batch` this is
        transactional: a rejected batch, or an assignment that does not
        fit the documents (:class:`AssignmentMismatchError`), leaves the
        state as it was.
        """
        snapshot = self.statistics.clone()
        k = self.kmeans.k
        try:
            self.statistics.observe(documents, at_time)
            if before_expiry:
                assignment = _recorded_assignment(
                    self.statistics.doc_ids(), clusters, k
                )
                expired = self.statistics.expire()
            else:
                self.statistics.expire()
                assignment = _recorded_assignment(
                    self.statistics.doc_ids(), clusters, k
                )
                expired = []
        except Exception:
            self.statistics = snapshot
            raise
        dropped = 0
        for doc in expired:
            if assignment.pop(doc.doc_id, None) is not None:
                dropped += 1
        self._assignment = assignment
        self._view = None
        return dropped

    def assignments(self) -> Dict[str, int]:
        """Current ``doc_id -> cluster_id`` map (copy)."""
        return dict(self._assignment)

    def view(self) -> EngineView:
        """Frozen engine state of the committed clustering: the last
        fit's; K empty clusters when never fed; or — restored from a
        checkpoint — the current assignment's, frozen through the
        engine."""
        if self._view is not None:
            return self._view
        documents = self.statistics.documents()
        if not documents:
            return EngineView.empty(self.kmeans.k, self.kmeans.criterion)
        return self.kmeans.freeze_assignment(
            documents, self.statistics, self._assignment
        )


def _recorded_assignment(
    doc_ids: Sequence[str], clusters: Sequence[int], k: int
) -> Dict[str, int]:
    """The ``doc_id -> cluster_id`` map ``clusters`` records over
    ``doc_ids`` (see :meth:`IncrementalClusterer.restore_batch`);
    :class:`AssignmentMismatchError` unless it has one entry per id,
    each −1 or inside ``0..k-1``."""
    cluster_of = np.asarray(clusters, dtype=np.int64)
    if cluster_of.shape != (len(doc_ids),):
        raise AssignmentMismatchError(
            f"the recorded assignment has {cluster_of.size} entries for "
            f"{len(doc_ids)} active documents"
        )
    if doc_ids and not -1 <= cluster_of.min() <= cluster_of.max() < k:
        raise AssignmentMismatchError(
            f"a recorded cluster id is outside 0..{k - 1}"
        )
    rows = np.argsort(cluster_of, kind="stable")
    rows = rows[cluster_of[rows] >= 0].tolist()
    return dict(zip(
        [doc_ids[row] for row in rows], cluster_of[rows].tolist()
    ))


class NonIncrementalClusterer:
    """From-scratch baseline: full statistics rebuild + cold start per batch.

    Keeps the complete archive of every document ever seen; at each
    batch the statistics are recomputed over the archive (applying
    expiry during the rebuild) and clustering starts from fresh random
    seeds — the paper's "non-incremental version".
    """

    def __init__(
        self,
        model: ForgettingModel,
        *,
        k: int,
        delta: float = 0.01,
        max_iterations: int = 30,
        seed: Optional[int] = None,
        engine: EngineClass = MatrixEngine,
        statistics_backend: Callable[[], StatisticsBackend] = (
            ColumnarStatisticsBackend
        ),
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.model = model
        self.recorder = resolve(recorder)
        self.kmeans = NoveltyKMeans(
            k=k,
            delta=delta,
            max_iterations=max_iterations,
            seed=seed,
            engine=engine,
            recorder=self.recorder,
        )
        self.statistics_backend = statistics_backend
        self.archive: List[Document] = []
        self.statistics: Optional[CorpusStatistics] = None
        #: the last committed batch's result; only this one is kept
        self.last_result: Optional[ClusteringResult] = None

    def set_recorder(self, recorder: Optional[Recorder]) -> None:
        """Attach ``recorder`` to the pipeline and all its components."""
        resolved = resolve(recorder)
        self.recorder = resolved
        self.kmeans.recorder = resolved
        if self.statistics is not None:
            self.statistics.recorder = resolved

    def process_batch(
        self, documents: Iterable[Document], at_time: float
    ) -> ClusteringResult:
        """Add ``documents`` to the archive and rebuild everything.

        A batch whose rebuild or clustering fails is rolled out of the
        archive *and* ``self.statistics`` is restored to the previous
        rebuild, so archive and statistics stay consistent and the
        same documents can be re-sent with a later batch.
        """
        batch = list(documents)
        self.archive.extend(batch)
        previous_statistics = self.statistics

        try:
            with Span(self.recorder, "pipeline.statistics",
                      {"batch": len(batch)}) as stats_span:
                self.statistics = CorpusStatistics.from_scratch(
                    self.model, self.archive, at_time,
                    recorder=self.recorder,
                    backend=self.statistics_backend,
                )

            active = self.statistics.documents()
            if not active:
                raise ClusteringError(
                    f"no active documents at t={at_time} "
                    f"(all expired; life_span={self.model.life_span})"
                )
            with Span(self.recorder, "pipeline.clustering",
                      {"docs": len(active)}):
                result = self.kmeans.fit(active, self.statistics)
        except Exception:
            del self.archive[len(self.archive) - len(batch):]
            self.statistics = previous_statistics
            if self.recorder.enabled:
                self.recorder.counter("pipeline.batches_rejected")
            raise

        timings = dict(result.timings)
        timings["statistics"] = stats_span.duration
        result = dataclasses.replace(result, timings=timings)
        self.last_result = result
        if self.recorder.enabled:
            self.recorder.counter("pipeline.batches")
        return result
