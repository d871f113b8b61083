"""GAC — group-average clustering over temporal buckets (Yang et al.).

"GAC divides chronologically ordered news stories into buckets and
performs group average method to the buckets and repeatedly forms
clusters hierarchically until a specified condition is met. GAC
periodically reclusters the stories within each of the top level
clusters by flattening the component clusters and regrowing clusters
internally from the leaf nodes." (paper Section 2.2, after Cutting's
Fractionation.)

Implementation:

* current units start as singleton documents in chronological order;
* each level partitions the units into consecutive buckets of
  ``bucket_size`` and runs group-average agglomerative clustering
  inside each bucket until the bucket shrinks by ``reduction_factor``;
* levels repeat until at most ``target_clusters`` units remain (or no
  level makes progress);
* every ``recluster_period`` levels each top-level cluster is flattened
  to its leaf documents and regrown, which counteracts early greedy
  merges — GAC's "periodic re-clustering".

The group-average similarity of a merge uses the unit-vector identity
``avg_pair_sim(C) = (‖Σv‖² - |C|) / (|C|(|C|-1))`` so candidate scoring
needs only summed vectors. A pair's score never changes, so each
agglomeration scores every pair once and keeps the scores.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from .._validation import (
    require_in_open_interval,
    require_positive_int,
)
from ..corpus.document import Document
from ..core.result import ClusteringResult
from ..exceptions import ClusteringError
from ._vectorize import Vector, add_into, dot, unit_tfidf_vectors


class _Unit:
    """A work unit: one cluster-in-progress (initially a single doc).

    ``norm_sq`` (the self dot of the vector sum) is cached per unit —
    every candidate score needs both self dots, which never change for
    a unit.
    """

    __slots__ = ("doc_ids", "vector_sum", "first_timestamp", "norm_sq")

    def __init__(
        self,
        doc_ids: List[str],
        vector_sum: Vector,
        first_timestamp: float,
        norm_sq: Optional[float] = None,
    ) -> None:
        self.doc_ids = doc_ids
        self.vector_sum = vector_sum
        self.first_timestamp = first_timestamp
        self.norm_sq = (
            norm_sq if norm_sq is not None
            else dot(vector_sum, vector_sum)
        )

    @property
    def size(self) -> int:
        return len(self.doc_ids)

    def merged_with(self, other: "_Unit") -> "_Unit":
        cross = dot(self.vector_sum, other.vector_sum)
        vector_sum = dict(self.vector_sum)
        add_into(vector_sum, other.vector_sum)
        return _Unit(
            self.doc_ids + other.doc_ids,
            vector_sum,
            min(self.first_timestamp, other.first_timestamp),
            norm_sq=self.norm_sq + 2.0 * cross + other.norm_sq,
        )

    def group_average(self) -> float:
        """Average pairwise cosine inside the unit (unit member vectors)."""
        n = self.size
        if n < 2:
            return 0.0
        return (self.norm_sq - n) / (n * (n - 1))


class GACClusterer:
    """Bucketed group-average hierarchical clustering.

    Parameters
    ----------
    target_clusters:
        Stop when at most this many top-level clusters remain.
    bucket_size:
        Number of consecutive units per bucket at each level.
    reduction_factor:
        Each bucket is agglomerated until ``ceil(size * factor)`` units
        remain (Cutting's Fractionation uses 1/3 - 1/2).
    recluster_period:
        Re-grow top-level clusters from their leaves every this many
        levels; ``None`` disables periodic re-clustering.
    """

    def __init__(
        self,
        target_clusters: int,
        bucket_size: int = 200,
        reduction_factor: float = 0.5,
        recluster_period: Optional[int] = 3,
    ) -> None:
        self.target_clusters = require_positive_int(
            "target_clusters", target_clusters
        )
        self.bucket_size = require_positive_int("bucket_size", bucket_size)
        self.reduction_factor = require_in_open_interval(
            "reduction_factor", reduction_factor, 0.0, 1.0
        )
        if recluster_period is not None:
            require_positive_int("recluster_period", recluster_period)
        self.recluster_period = recluster_period

    def fit(self, documents: Sequence[Document]) -> ClusteringResult:
        docs = sorted(
            (doc for doc in documents if doc.length > 0),
            key=lambda d: (d.timestamp, d.doc_id),
        )
        if not docs:
            raise ClusteringError("no non-empty documents to cluster")
        vectors = unit_tfidf_vectors(docs)
        units = [
            _Unit([doc.doc_id], vectors[doc.doc_id], doc.timestamp)
            for doc in docs
        ]

        level = 0
        while len(units) > self.target_clusters:
            level += 1
            before = len(units)
            units = self._one_level(units)
            if (
                self.recluster_period is not None
                and level % self.recluster_period == 0
            ):
                units = self._recluster(units, vectors)
            if len(units) >= before:
                break  # no progress; buckets cannot shrink further

        empty_docs = [doc.doc_id for doc in documents if doc.length == 0]
        total_avg = sum(u.size * u.group_average() for u in units)
        return ClusteringResult(
            clusters=tuple(tuple(u.doc_ids) for u in units),
            outliers=tuple(empty_docs),
            clustering_index=total_avg,
            index_history=(total_avg,),
            iterations=level,
            converged=len(units) <= self.target_clusters,
        )

    # -- internals ----------------------------------------------------------

    def _one_level(self, units: List[_Unit]) -> List[_Unit]:
        """Bucket consecutive units and agglomerate inside each bucket."""
        result: List[_Unit] = []
        for offset in range(0, len(units), self.bucket_size):
            bucket = units[offset:offset + self.bucket_size]
            goal = max(1, math.ceil(len(bucket) * self.reduction_factor))
            result.extend(self._agglomerate(bucket, goal))
        return result

    @staticmethod
    def _agglomerate(bucket: List[_Unit], goal: int) -> List[_Unit]:
        """Greedy group-average agglomeration until ``goal`` units remain.

        Each step merges the first pair, in list order, with the highest
        :meth:`_merge_score` above -1.0, drops the two from the list and
        appends the merged unit. Units get slots in order of creation,
        so the list order is the slot order, and ``scores[a, b]`` holds
        the score of slots ``a < b``: the first maximum of the row-major
        matrix is the list's first best pair. A merge retires two slots
        and scores one new column. Retired slots, the diagonal and the
        lower triangle hold -inf.
        """
        if len(bucket) <= goal:
            return list(bucket)
        units: List[Optional[_Unit]] = list(bucket)
        slots = 2 * len(bucket) - goal  # the bucket, then one per merge
        scores = np.full((slots, slots), -math.inf)
        for b in range(1, len(bucket)):
            scores[:b, b] = [
                GACClusterer._merge_score(first, bucket[b])
                for first in bucket[:b]
            ]
        for _ in range(len(bucket) - goal):
            i, j = divmod(int(scores.argmax()), slots)
            if scores[i, j] <= -1.0:
                break  # no pair may merge
            first, second = units[i], units[j]
            assert first is not None and second is not None
            merged = first.merged_with(second)
            units[i] = units[j] = None
            scores[[i, j], :] = -math.inf
            scores[:, [i, j]] = -math.inf
            new = len(units)
            scores[:new, new] = [
                -math.inf if unit is None
                else GACClusterer._merge_score(unit, merged)
                for unit in units
            ]
            units.append(merged)
        return [unit for unit in units if unit is not None]

    @staticmethod
    def _merge_score(first: _Unit, second: _Unit) -> float:
        """Group-average similarity of the would-be merged cluster."""
        n = first.size + second.size
        if n < 2:
            return 0.0
        cross = dot(first.vector_sum, second.vector_sum)
        norm_sq = first.norm_sq + 2.0 * cross + second.norm_sq
        return (norm_sq - n) / (n * (n - 1))

    def _recluster(
        self, units: List[_Unit], vectors: Dict[str, Vector]
    ) -> List[_Unit]:
        """Flatten to leaf documents and regrow to the same unit count.

        This is GAC's periodic re-clustering: early greedy merges made
        inside small buckets are reconsidered globally, while the number
        of top-level clusters is preserved so the outer loop keeps its
        monotone progress.
        """
        goal = len(units)
        doc_ids = [doc_id for unit in units for doc_id in unit.doc_ids]
        leaves = [
            _Unit([doc_id], vectors[doc_id], 0.0)
            for doc_id in doc_ids
        ]
        regrown = leaves
        while len(regrown) > goal:
            before = len(regrown)
            regrown = self._one_level(regrown)
            if len(regrown) <= goal or len(regrown) >= before:
                break
        if len(regrown) > goal:
            regrown = self._agglomerate(regrown, goal)
        return regrown

