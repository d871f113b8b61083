"""The paper's extended K-means (Section 4.3) over an engine.

Algorithm (paper Section 4.3):

* **Initial process** — pick K random documents as singleton clusters,
  compute representatives and the clustering index ``G`` (Eq. 17).
* **Repetition process** — for each document, compute the intra-cluster
  similarity it would produce in every cluster (Eq. 26, one sparse dot
  product per cluster) and assign it to the cluster whose
  *increase* is largest; documents that increase no cluster go to the
  **outlier list** and re-enter as normal documents next iteration.
  Terminate when ``(G_new - G_old)/G_old < δ``.

The numerical backend is an :class:`~repro.core.engines.Engine` built
per fit from the ``engine`` class
(:class:`~repro.core.engines.MatrixEngine` unless the parity suites
pass their oracle); the algorithm logic exists exactly once here and
drives whichever engine it is given. Each iteration's assignment sweep
goes through the engine's batched ``best_gains`` so the engine can
answer a whole pass with matrix products.

Inside a fit a document is its row of the fit's CSR batch: the engine,
the outlier list and the repair moves all hold rows. Doc ids are mapped
to rows once on entry (the warm start's ``initial_assignment``) and
back once, when the :class:`~repro.core.ClusteringResult` is built.
"""

from __future__ import annotations

import random
import time as time_module
from itertools import islice, repeat
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from .._typing import BoolArray, FloatArray, IntArray
from .._validation import (
    require_callable,
    require_in_open_interval,
    require_positive_int,
)
from ..corpus.document import Document
from ..exceptions import ClusteringError, ConfigurationError
from ..forgetting.statistics import CorpusStatistics
from ..obs import Recorder, Span, resolve
from ..vectors.arrays import WeightedVectorArrays
from ..vectors.tfidf import NoveltyTfidfWeighter
from .engines import (
    Engine,
    EngineClass,
    EngineView,
    MatrixEngine,
    SweepCounts,
)
from .result import ClusteringResult


class NoveltyKMeans:
    """The paper's extended K-means over novelty-based similarity.

    Parameters
    ----------
    k:
        Number of clusters (paper uses 24 or 32).
    delta:
        Convergence threshold ``δ`` on the relative increase of the
        clustering index ``G`` (Section 4.3 step 4).
    max_iterations:
        Safety cap on repetition-process iterations.
    seed:
        Seed for the random initial seed-document selection.
    engine:
        The engine class (see :mod:`repro.core.engines`), called as
        ``engine(k, vectors, criterion)`` once per fit:
        :class:`~repro.core.engines.MatrixEngine` (vectorised CSR
        sweeps, the library's one engine) unless the parity suites pass
        their reference engine here. Its ``name`` tags spans and
        checkpoints.
    criterion:
        Assignment gain criterion for step 1(b) of Section 4.3:

        * ``"g"`` (default) — greedy ascent on the clustering index
          ``G``: gain is the change of the cluster's ``|C_p|·avg_sim``
          term. Positive exactly when the document's mean similarity to
          the members exceeds *half* the current average. Consistent
          with the paper's convergence objective (step 4 monitors G)
          and with the cluster sizes its experiments report.
        * ``"avg"`` — the literal text of step 1(b): gain is the change
          of ``avg_sim`` itself. Rejects every document less similar
          than the current cluster average, which on homogeneous
          streams discards most documents as outliers; kept for the
          criterion-ablation benchmark.
    rescue_outliers:
        Library extension beyond the paper (default off) enabling two
        repair moves that per-document reassignment cannot express:

        * **outlier rescue** — under warm starts a newly emerging topic
          can starve: every cluster slot is held by an established
          topic, so the new topic's documents land in the outlier list
          forever (their gain against foreign clusters is never
          positive). After each pass a candidate cluster is grown
          greedily from the outlier list; if its ``G`` contribution
          exceeds the weakest live cluster's, the weakest cluster is
          evicted (its members re-enter as normal documents next
          iteration, mirroring the paper's outlier semantics) and the
          candidate takes the slot.
        * **split repair** — per-document moves can merge clusters but
          never split one, so a degenerate early merge (first batch
          smaller than K) persists forever, wasting empty slots. When
          an empty slot exists, the best positive-ΔG two-way split of
          an existing cluster fills it.

        Both moves are accepted only when they increase ``G``, so the
        greedy-ascent property is preserved. The on-line pipeline
        enables this by default; the batch experiments don't.
    recorder:
        Observability sink (:mod:`repro.obs`). Defaults to the ambient
        recorder (a no-op unless one was installed). When enabled,
        every fit emits vectorisation, engine-build, warm-start and
        per-pass spans, per-iteration ``G`` and outlier gauges, and
        reseed/rescue/split counters.
    """

    def __init__(
        self,
        k: int,
        delta: float = 0.01,
        max_iterations: int = 30,
        seed: Optional[int] = None,
        engine: EngineClass = MatrixEngine,
        criterion: str = "g",
        rescue_outliers: bool = False,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.k = require_positive_int("k", k)
        self.delta = require_in_open_interval("delta", delta, 0.0, 1.0)
        self.max_iterations = require_positive_int(
            "max_iterations", max_iterations
        )
        self.seed = seed
        self.engine = require_callable(
            "engine", engine, "an engine class such as MatrixEngine"
        )
        if criterion not in ("g", "avg"):
            raise ConfigurationError(
                f"criterion must be 'g' or 'avg', got {criterion!r}"
            )
        self.criterion = criterion
        self.rescue_outliers = bool(rescue_outliers)
        self.recorder = resolve(recorder)

    # -- public API ---------------------------------------------------------

    def fit(
        self,
        documents: Sequence[Document],
        statistics: CorpusStatistics,
        initial_assignment: Optional[Dict[str, int]] = None,
    ) -> ClusteringResult:
        """Cluster ``documents`` against ``statistics``.

        ``initial_assignment`` (``doc_id -> cluster_id``) enables the
        warm start of Section 5.2: listed documents form the initial
        clusters and unlisted ones start unassigned. Without it, K
        random documents seed singleton clusters (Section 4.3).
        """
        with Span(self.recorder, "kmeans.fit") as span:
            return self._fit(documents, statistics, initial_assignment, span)[0]

    def fit_frozen(
        self,
        documents: Sequence[Document],
        statistics: CorpusStatistics,
        initial_assignment: Optional[Dict[str, int]] = None,
    ) -> Tuple[ClusteringResult, EngineView]:
        """:meth:`fit`, plus the final engine state frozen after the
        last pass's ``refresh()`` — the state ``G`` was computed from."""
        with Span(self.recorder, "kmeans.fit") as span:
            result, backend = self._fit(documents, statistics,
                                        initial_assignment, span)
            return result, backend.freeze()

    def freeze_assignment(
        self,
        documents: Sequence[Document],
        statistics: CorpusStatistics,
        assignment: Dict[str, int],
    ) -> EngineView:
        """Freeze ``assignment`` over ``documents`` without fitting
        (vectorise, warm-start, ``refresh()``): the view of state no fit
        produced, built the one way a fit builds it."""
        docs = list(documents)
        vectors = NoveltyTfidfWeighter(statistics).weighted_arrays(docs)
        backend = self.engine(self.k, vectors, self.criterion)
        self._warm_start(backend, vectors, assignment)
        backend.refresh()
        return backend.freeze()

    def _fit(
        self,
        documents: Sequence[Document],
        statistics: CorpusStatistics,
        initial_assignment: Optional[Mapping[str, int]],
        span: Span,
    ) -> Tuple[ClusteringResult, Engine]:
        start = time_module.perf_counter()
        docs = list(documents)
        if not docs:
            raise ClusteringError("cannot cluster an empty document set")
        if len(docs) < self.k and initial_assignment is None:
            raise ClusteringError(
                f"need at least k={self.k} documents for random "
                f"initialisation, got {len(docs)}"
            )
        recorder = self.recorder
        with Span(recorder, "kmeans.vectorise",
                  {"docs": len(docs)}) as vectorise_span:
            # one CSR batch: the engine consumes its flat rows, and
            # rescue and split repair work on them too
            vectors = NoveltyTfidfWeighter(statistics).weighted_arrays(docs)

        with Span(recorder, "kmeans.engine_build"):
            backend = self.engine(self.k, vectors, self.criterion)
        with Span(recorder, "kmeans.warm_start"):
            if initial_assignment is not None:
                self._warm_start(backend, vectors, initial_assignment)
            else:
                self._random_seeds(backend, vectors)

        g_old = backend.clustering_index()
        history: List[float] = []
        outliers: List[int] = []
        converged = False
        iterations = 0

        for iterations in range(1, self.max_iterations + 1):
            with Span(recorder, "kmeans.pass",
                      {"iteration": iterations,
                       "engine": self.engine.name}) as pass_span:
                outliers = self._assignment_pass(backend, len(docs),
                                                 pass_span)
                reseeded = self._reseed_empty_clusters(backend, outliers)
                rescued = split = False
                if self.rescue_outliers:
                    if outliers:
                        rescued = self._rescue_outliers(
                            backend, vectors, outliers
                        )
                    if not rescued:
                        split = self._split_repair(backend, vectors)
                backend.refresh()
                g_new = backend.clustering_index()
            history.append(g_new)
            if recorder.enabled:
                recorder.gauge("kmeans.g", g_new, iteration=iterations)
                recorder.gauge("kmeans.outliers", len(outliers),
                               iteration=iterations)
                if reseeded:
                    recorder.counter("kmeans.reseeds", reseeded)
                if rescued:
                    recorder.counter("kmeans.rescues")
                if split:
                    recorder.counter("kmeans.splits")
            repaired = rescued or split
            if not repaired and self._converged(g_old, g_new):
                converged = True
                break
            g_old = g_new

        elapsed = time_module.perf_counter() - start
        span.tags.update(engine=self.engine.name, criterion=self.criterion,
                         docs=len(docs), iterations=iterations,
                         converged=converged)
        doc_ids = vectors.doc_ids
        return ClusteringResult(
            clusters=tuple(
                tuple(doc_ids[row] for row in rows.tolist())
                for rows in backend.members()
            ),
            outliers=tuple(doc_ids[row] for row in outliers),
            clustering_index=history[-1] if history else g_old,
            index_history=tuple(history),
            iterations=iterations,
            converged=converged,
            timings={"clustering": elapsed,
                     "vectorisation": vectorise_span.duration},
        ), backend

    # -- phases ------------------------------------------------------------

    def _random_seeds(
        self, backend: Engine, vectors: WeightedVectorArrays
    ) -> None:
        """Initial process step 1: K random singleton clusters."""
        rng = random.Random(self.seed)
        candidates = np.flatnonzero(np.diff(vectors.indptr) > 0).tolist()
        if not candidates:
            raise ClusteringError(
                "no document has a non-zero vector; nothing to cluster"
            )
        seeds = rng.sample(candidates, min(self.k, len(candidates)))
        for cluster_id, row in enumerate(seeds):
            backend.add(cluster_id, row)

    def _warm_start(
        self,
        backend: Engine,
        vectors: WeightedVectorArrays,
        initial_assignment: Mapping[str, int],
    ) -> None:
        """Section 5.2 step 3: previous clusters as initial clusters.

        Ids are mapped to rows and cluster ids checked as arrays, then
        the listed non-empty rows go to the engine in one bulk
        :meth:`~repro.core.engines.Engine.load`, in the assignment's
        order.
        """
        n = len(initial_assignment)
        # the row of each listed id, -1 when it is not in the batch
        row_of: Callable[[str, int], int] = dict(
            zip(vectors.doc_ids, range(len(vectors)))
        ).get
        rows = np.fromiter(
            map(row_of, initial_assignment.keys(), repeat(-1)),
            dtype=np.int64, count=n,
        )
        clusters = np.fromiter(initial_assignment.values(),
                               dtype=np.int64, count=n)
        listed = rows >= 0
        outside = listed & ((clusters < 0) | (clusters >= self.k))
        if outside.any():
            index = int(np.argmax(outside))
            doc_id = next(islice(initial_assignment.keys(), index, None))
            raise ConfigurationError(
                f"initial assignment of {doc_id!r} to cluster "
                f"{int(clusters[index])} outside [0, {self.k})"
            )
        keep = listed.copy()
        keep[listed] = np.diff(vectors.indptr)[rows[listed]] > 0
        backend.load(rows[keep], clusters[keep])

    def _assignment_pass(
        self, backend: Engine, n_rows: int, span: Span
    ) -> List[int]:
        """Repetition-process step 1 over all rows; returns the outliers.

        The whole sweep is handed to the engine as one batched
        ``best_gains`` call (each document: leave its cluster, probe
        Eq. 26 against every cluster, join the best positive-gain one)
        so vectorised engines can answer it with matrix products. With
        an enabled recorder, what a :class:`MatrixEngine` sweep did
        (:class:`~repro.core.engines.SweepCounts`) becomes tags of the
        pass ``span``, beside the ``docs`` it swept.
        """
        counted: Optional[MatrixEngine] = None
        if self.recorder.enabled:
            self.recorder.gauge("kmeans.batch_size", n_rows,
                                engine=self.engine.name)
            if isinstance(backend, MatrixEngine):
                counted = backend
                counted.sweep_counts = SweepCounts()
        best, gain = backend.best_gains(np.arange(n_rows, dtype=np.int64))
        if counted is not None and counted.sweep_counts is not None:
            span.tags.update(counted.sweep_counts.tags(), docs=n_rows)
            counted.sweep_counts = None
        outliers: List[int] = np.flatnonzero(
            ~((best >= 0) & (gain > 0.0))
        ).tolist()
        return outliers

    def _reseed_empty_clusters(
        self, backend: Engine, outliers: List[int]
    ) -> int:
        """Seed emptied clusters with the strongest remaining outliers.

        Returns the number of clusters re-seeded.
        """
        empty = [cid for cid, size in enumerate(backend.sizes()) if size == 0]
        if not empty or not outliers:
            return 0
        ranked = sorted(outliers, key=backend.self_similarity, reverse=True)
        seeded: Set[int] = set()
        for cluster_id, row in zip(empty, ranked):
            if backend.self_similarity(row) <= 0.0:
                break
            backend.add(cluster_id, row)
            seeded.add(row)
        if seeded:
            outliers[:] = [r for r in outliers if r not in seeded]
        return len(seeded)

    def _rescue_outliers(
        self,
        backend: Engine,
        vectors: WeightedVectorArrays,
        outliers: List[int],
    ) -> bool:
        """Swap the weakest cluster for a cluster grown from outliers.

        Builds a scratch candidate greedily (strongest outlier as seed,
        then every outlier with positive ΔG gain), and performs the swap
        only when the candidate's ``G`` contribution beats the weakest
        live cluster's. Returns True when a swap happened.
        """
        ranked = sorted(
            (row for row in outliers if backend.self_similarity(row) > 0.0),
            key=backend.self_similarity,
            reverse=True,
        )
        if len(ranked) < 2:
            return False
        candidate, contribution = self._grow_candidate(vectors, ranked)
        if len(candidate) < 2:
            return False

        sizes = backend.sizes()
        contributions = backend.contributions()
        live = [cid for cid, size in enumerate(sizes) if size > 0]
        if not live:
            return False
        weakest = min(live, key=lambda cid: contributions[cid])
        if contribution <= contributions[weakest]:
            return False

        evicted: List[int] = backend.members()[weakest].tolist()
        for row in evicted:
            backend.remove(weakest, row)
        for row in candidate:
            backend.add(weakest, row)
        # one linear rebuild instead of a list.remove per rescued row
        rescued = set(candidate)
        outliers[:] = [r for r in outliers if r not in rescued] + evicted
        return True

    @staticmethod
    def _grow_candidate(
        vectors: WeightedVectorArrays, ranked: List[int]
    ) -> Tuple[List[int], float]:
        """Grow the rescue candidate over the rows ``ranked``: the first
        seeds it, every later one joins when its ΔG gain is positive.

        The candidate is one dense representative over the batch's
        columns (Eq. 19-20) with ``crpp``/``ss`` (Eq. 21-23) kept by the
        engines' append update; each gain
        is the ``"g"`` criterion of Eq. 25-26 from one row dot product.
        Returns the members and their ``|C|·avg_sim`` contribution.
        """
        terms, cols = vectors.columns()
        self_dots = vectors.self_similarities().tolist()
        indptr = vectors.indptr.tolist()
        data = vectors.data
        representative = np.zeros(terms.size, dtype=np.float64)
        crpp = ss = 0.0
        members: List[int] = []
        for row in ranked:
            lo, hi = indptr[row], indptr[row + 1]
            row_cols = cols[lo:hi]
            row_data = data[lo:hi]
            s = 0.0
            if members:
                s = float(np.dot(row_data, representative[row_cols]))
                n = len(members)
                pair_sum = (crpp - ss) / 2.0
                gain = 2.0 * s if n == 1 else (
                    2.0 * (s * (n - 1) - pair_sum) / (n * (n - 1))
                )
                if gain <= 0.0:
                    continue
            w2 = self_dots[row]
            crpp += 2.0 * s + w2
            ss += w2
            representative[row_cols] += row_data
            members.append(row)
        n = len(members)
        if n < 2:
            return members, 0.0
        return members, n * ((crpp - ss) / (n * (n - 1)))

    def _split_repair(
        self,
        backend: Engine,
        vectors: WeightedVectorArrays,
    ) -> bool:
        """Fill an empty slot by splitting a low-cohesion cluster.

        Per-document moves can merge clusters but never split one, so a
        degenerate early merge (e.g. the first batch holding fewer
        documents than K) persists forever under warm starts, wasting
        empty slots. When an empty slot exists, propose a 2-way split
        of each cluster (seeds: the member farthest from the
        representative and the member least similar to it; members
        assigned by higher similarity) and perform the best split whose
        ``G`` delta is positive. One split per iteration keeps the
        ascent gentle.
        """
        sizes = backend.sizes()
        empty = [cid for cid, size in enumerate(sizes) if size == 0]
        if not empty:
            return False
        best = self._best_split(
            vectors, backend.members(), backend.contributions()
        )
        if best is None:
            return False
        _, cid, moved = best
        target = empty[0]
        for row in moved.tolist():
            backend.remove(cid, row)
            backend.add(target, row)
        return True

    @classmethod
    def _best_split(
        cls,
        vectors: WeightedVectorArrays,
        members: Sequence[IntArray],
        contributions: Sequence[float],
    ) -> Optional[Tuple[float, int, IntArray]]:
        """``(ΔG, cluster, moved member rows)`` of the best positive-ΔG
        proposed split of the clusters' member ``rows``, or None. Ties
        go to the lowest cluster id."""
        best: Optional[Tuple[float, int, IntArray]] = None
        for cid, rows in enumerate(members):
            if rows.size < 2:
                continue
            owner, cols, data = vectors.gather(rows)
            moved = cls._propose_split(vectors, rows, owner, cols, data)
            if moved is None:
                continue
            n_moved = int(np.count_nonzero(moved))
            if n_moved == rows.size:
                continue
            moved_part = moved[owner]
            kept_part = ~moved_part
            delta = (
                cls._scratch_contribution(
                    vectors, cols[kept_part], data[kept_part],
                    rows.size - n_moved,
                )
                + cls._scratch_contribution(
                    vectors, cols[moved_part], data[moved_part], n_moved,
                )
                - contributions[cid]
            )
            if delta > 1e-18 and (best is None or delta > best[0]):
                best = (delta, cid, rows[moved])
        return best

    @staticmethod
    def _propose_split(
        vectors: WeightedVectorArrays,
        rows: IntArray,
        owner: IntArray,
        cols: IntArray,
        data: FloatArray,
    ) -> Optional[BoolArray]:
        """Which of a cluster's ``rows`` to move out: the half closer to
        the 'odd one out' (None when the two seeds coincide).

        Seed A is the member least similar to the cluster
        representative; seed B the member least similar to A. Each
        member goes with the seed it is more similar to; the group
        holding seed A (the outsiders) is returned as a mask over
        ``rows``. ``owner``/``cols``/``data`` are the rows' components
        (:meth:`WeightedVectorArrays.gather`); every similarity is a
        ``np.bincount`` over them, ties resolve to the first member.
        """
        n_columns = vectors.columns()[0].size
        size = rows.size
        representative = np.bincount(cols, weights=data,
                                     minlength=n_columns)
        to_rest = (
            np.bincount(owner, weights=data * representative[cols],
                        minlength=size)
            - vectors.self_similarities()[rows]
        )
        seed_a = int(np.argmin(to_rest))

        def similarity_to(seed: int) -> FloatArray:
            dense = np.zeros(n_columns, dtype=np.float64)
            seed_cols, seed_data = vectors.row(int(rows[seed]))
            dense[seed_cols] = seed_data
            return np.bincount(owner, weights=data * dense[cols],
                               minlength=size).astype(np.float64, copy=False)

        sim_a = similarity_to(seed_a)
        seed_b = int(np.argmin(sim_a))
        if seed_a == seed_b:
            return None
        moved = sim_a > similarity_to(seed_b)
        moved[seed_a] = True
        return moved

    @staticmethod
    def _scratch_contribution(
        vectors: WeightedVectorArrays,
        cols: IntArray,
        data: FloatArray,
        size: int,
    ) -> float:
        """``|C|·avg_sim`` (Eq. 17, 24) of a hypothetical cluster of
        ``size`` members whose components are ``cols``/``data``.

        ``crpp - ss`` (Eq. 21-23) is summed per column as the
        representative's square minus its members' squares, so a term
        only one member carries adds exactly zero, as it does to the
        pairwise similarity sum the two quantities differ by.
        """
        if size < 2:
            return 0.0
        n_columns = vectors.columns()[0].size
        representative = np.bincount(cols, weights=data,
                                     minlength=n_columns)
        squares = np.bincount(cols, weights=data * data,
                              minlength=n_columns)
        pairs = float(np.sum(representative * representative - squares))
        return size * (pairs / (size * (size - 1)))

    def _converged(self, g_old: float, g_new: float) -> bool:
        """Section 4.3 step 4: ``(G_new - G_old)/G_old < δ``."""
        if g_old <= 0.0:
            return g_new <= 0.0
        return (g_new - g_old) / g_old < self.delta
