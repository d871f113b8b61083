"""A snapshot is the engine's frozen state, whichever engine built it.

Published snapshots carry the committing fit's
:class:`~repro.core.engines.EngineView` rather than a state of their
own, so two properties pin them down:

* ``MatrixEngine`` and the ``DenseEngine`` oracle publish the same
  clusters and outliers after every batch of one seeded stream, with
  representatives, ``crpp``, ``ss`` and ``G`` within 1e-9;
* a pipeline restored from a checkpoint — whose view is frozen from its
  restored assignment, not from a fit — publishes the same state as the
  live pipeline it was saved from, and answers queries identically.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import ClusterSnapshot, ForgettingModel, IncrementalClusterer
from repro.api import build_clusterer
from repro.core.engines import MatrixEngine
from repro.exceptions import ReproError
from repro.persistence import load_checkpoint, save_checkpoint
from tests.oracles import DenseEngine

from .conftest import PARITY_TOL, SERVICE_KWARGS, probe_like


def clusterer_on(engine):
    model = ForgettingModel(
        half_life=SERVICE_KWARGS["half_life"],
        life_span=SERVICE_KWARGS["life_span"],
    )
    return IncrementalClusterer(
        model, k=SERVICE_KWARGS["k"], seed=SERVICE_KWARGS["seed"],
        engine=engine,
    )


def assert_views_close(observed: ClusterSnapshot,
                       expected: ClusterSnapshot) -> None:
    assert observed.clusters == expected.clusters
    assert observed.outliers == expected.outliers
    a, b = observed.view, expected.view
    assert a.criterion == b.criterion
    np.testing.assert_array_equal(a.term_ids, b.term_ids)
    np.testing.assert_array_equal(a.sizes, b.sizes)
    for name in ("representatives", "crpp", "ss", "contributions",
                 "gain_a", "gain_b"):
        np.testing.assert_allclose(
            getattr(a, name), getattr(b, name),
            rtol=PARITY_TOL, atol=PARITY_TOL, err_msg=name,
        )
    assert math.isclose(a.clustering_index, b.clustering_index,
                        rel_tol=PARITY_TOL, abs_tol=PARITY_TOL)
    np.testing.assert_allclose(observed.idf, expected.idf,
                               rtol=PARITY_TOL, atol=PARITY_TOL)


class TestOracleParity:
    def test_matrix_and_dense_publish_the_same_snapshots(self, stream):
        _, batches = stream
        fast = clusterer_on(MatrixEngine)
        oracle = clusterer_on(DenseEngine)
        for version, (at_time, batch) in enumerate(batches, start=1):
            fast.process_batch(list(batch), at_time=at_time)
            oracle.process_batch(list(batch), at_time=at_time)
            assert_views_close(
                ClusterSnapshot.from_clusterer(version, fast),
                ClusterSnapshot.from_clusterer(version, oracle),
            )

    def test_never_fed_views_agree(self):
        fast = ClusterSnapshot.from_clusterer(0, clusterer_on(MatrixEngine))
        oracle = ClusterSnapshot.from_clusterer(0, clusterer_on(DenseEngine))
        assert_views_close(fast, oracle)
        assert fast.view.representatives.shape == (SERVICE_KWARGS["k"], 0)


class TestRestoredState:
    @pytest.mark.parametrize("upto", [1, 3, 6])
    def test_checkpoint_round_trip_publishes_the_live_state(
        self, stream, tmp_path, upto
    ):
        vocabulary, batches = stream
        live = build_clusterer(**SERVICE_KWARGS)
        for at_time, batch in batches[:upto]:
            live.process_batch(list(batch), at_time=at_time)
        path = tmp_path / "state.json"
        save_checkpoint(live, vocabulary, path)
        restored, _ = load_checkpoint(path)
        assert restored.last_result is None  # no fit: view is rebuilt

        expected = ClusterSnapshot.from_clusterer(upto, live)
        observed = ClusterSnapshot.from_clusterer(upto, restored)
        assert observed.at_time == expected.at_time
        assert_views_close(observed, expected)

        probes = [probe_like(doc) for _, batch in batches for doc in batch]
        probes.append({int(expected.view.term_ids[0]): 2})
        for probe in probes:
            got, want = observed.assign(probe), expected.assign(probe)
            assert got.cluster_id == want.cluster_id
            assert math.isclose(got.gain, want.gain,
                                rel_tol=PARITY_TOL, abs_tol=PARITY_TOL)

    def test_rejected_batch_keeps_the_previous_view(self, stream):
        _, batches = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)
        for at_time, batch in batches[:2]:
            clusterer.process_batch(list(batch), at_time=at_time)
        view = clusterer.view()
        with pytest.raises(ReproError):
            # re-sending committed documents is rejected and rolled back
            clusterer.process_batch(list(batches[1][1]),
                                    at_time=batches[2][0])
        assert clusterer.view() is view
