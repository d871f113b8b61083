"""Checkpoint round-trip parity: oracle and production live runs.

A live run on any combination of statistics backend (the
``DictStatisticsBackend`` oracle, ``ColumnarStatisticsBackend``) and
numerical engine (the ``DenseEngine`` oracle, ``MatrixEngine``) must
round-trip through a checkpoint onto the production
pair, with an exact assignment and statistics and clustering index G
that agree with the live run to 1e-9 relative.
"""

from __future__ import annotations

import math

import pytest

from repro.core.engines import MatrixEngine
from repro.forgetting.backends import ColumnarStatisticsBackend
from repro.persistence import load_checkpoint, save_checkpoint

from tests.durability.conftest import build_batches, make_clusterer
from tests.oracles import DenseEngine, DictStatisticsBackend

BACKENDS = (DictStatisticsBackend, ColumnarStatisticsBackend)
ENGINES = (DenseEngine, MatrixEngine)
REL_TOL = 1e-9


def term_probability_by_string(clusterer, vocabulary):
    return {
        vocabulary.term(term_id): probability
        for term_id, probability in
        clusterer.statistics.term_probabilities().items()
    }


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.name)
class TestParityMatrix:
    def test_round_trip_matches_live_state(
        self, backend, engine, tmp_path
    ):
        vocabulary, batches = build_batches(days=6)
        clusterer = make_clusterer(
            engine=engine, statistics_backend=backend
        )
        result = None
        for at_time, batch in batches:
            result = clusterer.process_batch(batch, at_time=at_time)

        path = tmp_path / "state.json"
        save_checkpoint(clusterer, vocabulary, path)
        # a fresh vocabulary: restores must not depend on the original
        # term-id numbering
        restored, restored_vocabulary = load_checkpoint(path)
        assert restored.kmeans.engine is MatrixEngine
        assert restored.statistics.backend_name == "columnar"

        # structural state: exact
        assert restored.assignments() == clusterer.assignments()
        assert restored.statistics.now == clusterer.statistics.now
        assert sorted(restored.statistics.doc_ids()) == sorted(
            clusterer.statistics.doc_ids()
        )

        # statistics: 1e-9 relative
        assert math.isclose(
            restored.statistics.tdw, clusterer.statistics.tdw,
            rel_tol=REL_TOL,
        )
        for doc_id in clusterer.statistics.doc_ids():
            assert math.isclose(
                restored.statistics.dw(doc_id),
                clusterer.statistics.dw(doc_id),
                rel_tol=REL_TOL,
            ), doc_id
        live_terms = term_probability_by_string(clusterer, vocabulary)
        restored_terms = term_probability_by_string(
            restored, restored_vocabulary
        )
        assert live_terms.keys() == restored_terms.keys()
        for term, probability in live_terms.items():
            assert math.isclose(
                restored_terms[term], probability, rel_tol=REL_TOL
            ), term

        # G: re-cluster both at the same clock and compare Eq. 17
        at_time = clusterer.statistics.now
        live = clusterer.process_batch([], at_time=at_time)
        again = restored.process_batch([], at_time=at_time)
        assert again.clusters == live.clusters
        assert again.outliers == live.outliers
        assert math.isclose(
            again.clustering_index, live.clustering_index,
            rel_tol=REL_TOL,
        )
        assert result is not None
