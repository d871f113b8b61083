"""Topic threads: linking clusters across successive clusterings.

The paper produces an independent clustering per time window; a user
watching the stream also wants to know *which cluster is the same story
as last week's*. :class:`TopicTracker` links clusters of consecutive
snapshots into **threads** by cosine similarity of their representative
vectors — the TDT "topic tracking" task built on the paper's own
cluster representatives (Eq. 19-20), read from the
:class:`~repro.core.engines.EngineView` each fit froze. A
representative's norm is ``√cr_sim(C_p, C_p)`` (Eq. 21).

Matching is greedy on descending similarity with a threshold; clusters
that match no existing thread found a new one, and threads unmatched
for ``patience`` consecutive updates are retired. Cluster ids are *not*
trusted across snapshots (warm starts mostly preserve them, but rescue
swaps and re-seeding reuse slots), so matching is purely content-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._typing import FloatArray, IntArray
from .._validation import (
    require_non_negative_int,
    require_probability,
)
from .engines import EngineView

#: A unit-norm representative: ascending term ids and their values.
UnitRepresentative = Tuple[IntArray, FloatArray]


def _no_representative() -> UnitRepresentative:
    return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)


@dataclass(frozen=True)
class ThreadEvent:
    """One observation of a thread: which cluster carried it and when."""

    at_time: float
    cluster_id: int
    size: int
    similarity: float  # to the thread's previous representative (1.0 at birth)


@dataclass
class TopicThread:
    """A story line followed across snapshots."""

    thread_id: int
    born_at: float
    events: List[ThreadEvent] = field(default_factory=list)
    #: Unit representative of the cluster that last carried the thread.
    representative: UnitRepresentative = field(
        default_factory=_no_representative
    )
    misses: int = 0
    retired: bool = False

    @property
    def last_seen(self) -> float:
        return self.events[-1].at_time if self.events else self.born_at

    @property
    def current_cluster(self) -> Optional[int]:
        """Cluster id at the latest snapshot; None once retired/missed."""
        if self.retired or self.misses > 0 or not self.events:
            return None
        return self.events[-1].cluster_id

    @property
    def span(self) -> float:
        return self.last_seen - self.born_at

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class TrackingSnapshot:
    """Outcome of one tracker update."""

    at_time: float
    continued: Tuple[int, ...]   # thread ids matched this snapshot
    born: Tuple[int, ...]        # thread ids created this snapshot
    retired: Tuple[int, ...]     # thread ids retired this snapshot
    cluster_to_thread: Dict[int, int] = field(default_factory=dict)


class TopicTracker:
    """Track cluster identity across successive clustering snapshots.

    Parameters
    ----------
    threshold:
        Minimum cosine between a cluster's representative and a live
        thread's last representative to count as the same story.
    patience:
        Number of consecutive snapshots a thread may go unmatched
        before it is retired (0 = retire immediately).
    """

    def __init__(self, threshold: float = 0.3, patience: int = 1) -> None:
        self.threshold = require_probability("threshold", threshold)
        self.patience = require_non_negative_int("patience", patience)
        self.threads: Dict[int, TopicThread] = {}
        self._next_id = 0
        self._last_time: Optional[float] = None

    # -- queries ---------------------------------------------------------

    def active_threads(self) -> List[TopicThread]:
        """Threads not retired, most recently seen first."""
        return sorted(
            (t for t in self.threads.values() if not t.retired),
            key=lambda t: t.last_seen,
            reverse=True,
        )

    def thread_of_cluster(self, cluster_id: int) -> Optional[TopicThread]:
        """The live thread currently carried by ``cluster_id``."""
        for thread in self.threads.values():
            if not thread.retired and thread.current_cluster == cluster_id:
                return thread
        return None

    def prune_retired(self, keep_latest: int = 0) -> int:
        """Drop retired threads, keeping the ``keep_latest`` most
        recently seen. Long-running monitors call this periodically;
        the tracker otherwise keeps every thread ever created as the
        historical record. Returns the number removed."""
        retired = sorted(
            (t for t in self.threads.values() if t.retired),
            key=lambda t: t.last_seen,
            reverse=True,
        )
        to_drop = retired[keep_latest:] if keep_latest > 0 else retired
        for thread in to_drop:
            del self.threads[thread.thread_id]
        return len(to_drop)

    # -- updates -----------------------------------------------------------

    def update(self, view: EngineView, at_time: float) -> TrackingSnapshot:
        """Ingest one clustering snapshot — the engine view a fit froze
        (:meth:`~repro.core.IncrementalClusterer.view`) — and link its
        clusters to the threads."""
        if self._last_time is not None and at_time <= self._last_time:
            raise ValueError(
                f"snapshots must advance in time: {at_time} after "
                f"{self._last_time}"
            )
        self._last_time = at_time

        live = np.flatnonzero((view.sizes > 0) & (view.crpp > 0.0))
        norms = np.sqrt(view.crpp[live])
        candidates = self._ranked_candidates(view, live, norms)

        matched_threads: Dict[int, Tuple[int, float]] = {}
        matched_clusters: Dict[int, int] = {}
        for similarity, thread_id, cluster_id in candidates:
            if similarity < self.threshold:
                break
            if thread_id in matched_threads or cluster_id in matched_clusters:
                continue
            matched_threads[thread_id] = (cluster_id, similarity)
            matched_clusters[cluster_id] = thread_id

        born: List[int] = []
        for cluster_id in live.tolist():
            if cluster_id in matched_clusters:
                continue
            thread = TopicThread(
                thread_id=self._next_id, born_at=at_time
            )
            self._next_id += 1
            self.threads[thread.thread_id] = thread
            matched_threads[thread.thread_id] = (cluster_id, 1.0)
            matched_clusters[cluster_id] = thread.thread_id
            born.append(thread.thread_id)

        norm_of = dict(zip(live.tolist(), norms.tolist()))
        continued: List[int] = []
        retired: List[int] = []
        for thread_id, thread in self.threads.items():
            if thread.retired:
                continue
            if thread_id in matched_threads:
                cluster_id, similarity = matched_threads[thread_id]
                thread.events.append(ThreadEvent(
                    at_time=at_time,
                    cluster_id=cluster_id,
                    size=int(view.sizes[cluster_id]),
                    similarity=similarity,
                ))
                row = view.representatives[cluster_id]
                carried = np.flatnonzero(row)
                thread.representative = (
                    view.term_ids[carried],
                    row[carried] / norm_of[cluster_id],
                )
                thread.misses = 0
                if thread_id not in born:
                    continued.append(thread_id)
            else:
                thread.misses += 1
                if thread.misses > self.patience:
                    thread.retired = True
                    retired.append(thread_id)

        return TrackingSnapshot(
            at_time=at_time,
            continued=tuple(continued),
            born=tuple(born),
            retired=tuple(retired),
            cluster_to_thread=dict(matched_clusters),
        )

    # -- internals -----------------------------------------------------------

    def _ranked_candidates(
        self, view: EngineView, live: IntArray, norms: FloatArray
    ) -> List[Tuple[float, int, int]]:
        """(similarity, thread_id, cluster_id) sorted descending: the
        cosine of each live thread's unit representative against each
        ``live`` cluster's row of ``view``."""
        candidates: List[Tuple[float, int, int]] = []
        term_ids = view.term_ids
        if live.size == 0:
            return candidates
        rows = view.representatives[live]
        clusters = live.tolist()
        for thread_id, thread in self.threads.items():
            thread_terms, values = thread.representative
            if thread.retired or not thread_terms.size:
                continue
            positions = np.minimum(np.searchsorted(term_ids, thread_terms),
                                   term_ids.size - 1)
            found = term_ids[positions] == thread_terms
            similarities = (rows[:, positions[found]] @ values[found]) / norms
            candidates.extend(
                zip(similarities.tolist(), [thread_id] * len(clusters),
                    clusters)
            )
        candidates.sort(key=lambda item: (-item[0], item[1], item[2]))
        return candidates
