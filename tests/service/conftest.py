"""Shared fixtures for the service suite.

Reuses the durability suite's stream builder (two clearly separated
topics, daily batches) and its batch-prefix reference machinery: the
acceptance property here is that every snapshot a reader observes
equals the batch-mode clusterer state after the same batch prefix.
"""

from __future__ import annotations

import math
from typing import Any, List, Tuple

import pytest

from repro import ClusterSnapshot, Document, Vocabulary
from repro.api import build_clusterer
from tests.durability.conftest import Batch, build_batches, build_tdt2_batches

__all__ = [
    "Batch",
    "build_batches",
    "build_tdt2_batches",
    "SERVICE_KWARGS",
    "PARITY_TOL",
    "reference_snapshot",
    "assert_snapshot_parity",
    "probe_like",
]

#: Pipeline settings every clusterer in this suite shares, so service
#: runs and reference replays are comparable.
SERVICE_KWARGS = dict(k=3, seed=1, half_life=7.0, life_span=14.0)

#: Snapshot floats must match the batch-mode state to this tolerance
#: (the ISSUE's acceptance bound; in practice they are bit-equal).
PARITY_TOL = 1e-9


@pytest.fixture
def stream() -> Tuple[Vocabulary, List[Batch]]:
    return build_batches(days=6)


def reference_snapshot(
    batches: List[Batch], upto: int, **kwargs: Any
) -> ClusterSnapshot:
    """Snapshot of a batch-mode clusterer after ``upto`` batches."""
    merged = dict(SERVICE_KWARGS)
    merged.update(kwargs)
    clusterer = build_clusterer(**merged)
    for at_time, batch in batches[:upto]:
        clusterer.process_batch(list(batch), at_time=at_time)
    return ClusterSnapshot.from_clusterer(upto, clusterer)


def assert_snapshot_parity(
    observed: ClusterSnapshot, reference: ClusterSnapshot
) -> None:
    """``observed`` equals the batch-mode state at the same version."""
    assert observed.version == reference.version
    assert observed.at_time == reference.at_time
    assert observed.clusters == reference.clusters
    assert observed.outliers == reference.outliers
    assert math.isclose(
        observed.clustering_index,
        reference.clustering_index,
        rel_tol=PARITY_TOL,
        abs_tol=PARITY_TOL,
    )
    assert math.isclose(
        observed.frozen.tdw, reference.frozen.tdw,
        rel_tol=PARITY_TOL, abs_tol=PARITY_TOL,
    )


def probe_like(document: Document, timestamp: float = 99.0) -> Document:
    """A fresh query document with an existing document's terms."""
    return Document(
        doc_id="probe",
        timestamp=timestamp,
        term_counts=dict(document.term_counts),
    )
