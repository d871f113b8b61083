"""Clustering result value objects."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of one clustering run.

    Attributes
    ----------
    clusters:
        Tuple of member-id tuples, indexed by cluster id. Empty clusters
        are kept in place so cluster ids are stable across windows.
    outliers:
        Documents left unassigned by the final iteration (Section 4.3
        step 1(b)).
    clustering_index:
        Final value of ``G`` (Eq. 17).
    index_history:
        ``G`` after each repetition-process iteration.
    iterations:
        Number of repetition-process iterations executed.
    converged:
        True when the ΔG/G < δ criterion fired (vs. the iteration cap).
    """

    clusters: Tuple[Tuple[str, ...], ...]
    outliers: Tuple[str, ...]
    clustering_index: float
    index_history: Tuple[float, ...]
    iterations: int
    converged: bool

    @property
    def k(self) -> int:
        """Number of cluster slots (including empty ones)."""
        return len(self.clusters)

    @property
    def n_documents(self) -> int:
        """Documents assigned to clusters (excludes outliers)."""
        return sum(len(cluster) for cluster in self.clusters)

    def non_empty_clusters(self) -> List[Tuple[int, Tuple[str, ...]]]:
        """``(cluster_id, member_ids)`` for clusters with members."""
        return [
            (cluster_id, members)
            for cluster_id, members in enumerate(self.clusters)
            if members
        ]

    def assignments(self) -> Dict[str, int]:
        """``doc_id -> cluster_id`` for all clustered documents."""
        mapping: Dict[str, int] = {}
        for cluster_id, members in enumerate(self.clusters):
            for doc_id in members:
                mapping[doc_id] = cluster_id
        return mapping

    def labels(self, doc_ids: Sequence[str]) -> List[int]:
        """Cluster id per ``doc_ids`` entry; -1 for outliers/unknown."""
        assignments = self.assignments()
        return [assignments.get(doc_id, -1) for doc_id in doc_ids]

    def cluster_of(self, doc_id: str) -> Optional[int]:
        """Cluster id of ``doc_id`` or ``None`` if outlier/unknown."""
        for cluster_id, members in enumerate(self.clusters):
            if doc_id in members:
                return cluster_id
        return None

    def summary(self) -> str:
        """One-line human-readable description."""
        sizes = sorted((len(c) for c in self.clusters if c), reverse=True)
        return (
            f"{len(sizes)} non-empty clusters over {self.n_documents} docs "
            f"(+{len(self.outliers)} outliers), G={self.clustering_index:.3e}, "
            f"{self.iterations} iterations"
            f"{' (converged)' if self.converged else ''}, "
            f"sizes={sizes[:10]}{'...' if len(sizes) > 10 else ''}"
        )
