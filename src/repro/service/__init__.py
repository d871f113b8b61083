"""Streaming service layer: one writer thread, lock-free readers.

This package turns the batch pipeline into a long-running service:
:class:`ClusterService` serializes ingestion through one writer thread
behind a bounded queue and publishes an immutable, monotonically versioned
:class:`ClusterSnapshot` after every committed batch. Readers query the
snapshot — :meth:`~ClusterSnapshot.assign`, :meth:`~ClusterSnapshot.search`,
:meth:`~ClusterSnapshot.top_clusters`, :meth:`~ClusterSnapshot.members`,
:meth:`~ClusterSnapshot.stats` — without locks and without ever
observing a half-committed batch. See ``docs/SERVICE.md`` for the
writer/reader contract; construct services via
:func:`repro.api.open_stream`.
"""

from .snapshot import (
    ClusterInfo,
    ClusterSnapshot,
    Query,
    QueryAssignment,
    SearchHit,
    SnapshotStats,
)
from .service import ClusterService
from .web import ServiceHTTPServer

__all__ = [
    "ClusterService",
    "ClusterSnapshot",
    "ClusterInfo",
    "Query",
    "QueryAssignment",
    "SearchHit",
    "SnapshotStats",
    "ServiceHTTPServer",
]
