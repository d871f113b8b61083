"""Tests for the engine layer (the engine seam + fast-vs-oracle parity).

:class:`MatrixEngine` and the tests' :class:`DenseEngine` oracle
(``tests/oracles/dense.py``) implement the same Eq. 19-26 accounting
with different data structures, so under a fixed seed they must
produce the *same clustering*: identical assignments, identical member
sets, and a clustering index ``G`` equal up to float associativity.
"""

import math

import pytest

from repro import (
    ForgettingModel,
    IncrementalClusterer,
    NoveltyKMeans,
)
from repro.core.engines import MatrixEngine
from repro.exceptions import ConfigurationError
from repro.forgetting.statistics import CorpusStatistics
from tests.conftest import build_topic_repository
from tests.oracles import DenseEngine

ENGINES = (DenseEngine, MatrixEngine)


@pytest.fixture(scope="module")
def corpus():
    repo = build_topic_repository(days=6, docs_per_topic_per_day=3, seed=11)
    docs = sorted(repo.documents(), key=lambda d: d.timestamp)
    model = ForgettingModel(half_life=7.0, life_span=14.0)
    statistics = CorpusStatistics.from_scratch(model, docs, at_time=6.0)
    return statistics.documents(), statistics


class TestRegistry:
    """Engine selection: ``engine=`` takes the class itself, and
    anything else fails at construction."""

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            NoveltyKMeans(k=4, engine="no-such-engine")
        message = str(excinfo.value)
        assert "no-such-engine" in message
        assert "MatrixEngine" in message

    def test_kmeans_rejects_unknown_engine_eagerly(self):
        # a stale caller still passing a former registry name gets a
        # ConfigurationError naming the class, not a TypeError from fit
        for stale in ("matrix", "dense", "typo", None):
            with pytest.raises(ConfigurationError, match="MatrixEngine"):
                NoveltyKMeans(k=4, engine=stale)
        model = ForgettingModel(half_life=7.0)
        with pytest.raises(ConfigurationError, match="MatrixEngine"):
            IncrementalClusterer(model, k=4, engine="matrix")

    def test_custom_engine_registration(self, corpus):
        docs, statistics = corpus
        calls = []

        class CustomEngine(DenseEngine):
            name = "custom-test"

            def __init__(self, k, vectors, criterion):
                calls.append((k, criterion))
                super().__init__(k, vectors, criterion)

        kmeans = NoveltyKMeans(k=4, seed=0, engine=CustomEngine)
        assert kmeans.engine is CustomEngine
        result = kmeans.fit(docs, statistics)
        assert calls and calls[0] == (4, "g")
        assert result.n_documents > 0

    def test_missing_scipy_points_to_the_declared_dependency(
        self, monkeypatch
    ):
        from repro.core.engines import matrix

        monkeypatch.setattr(matrix, "_sp", None)
        with pytest.raises(ConfigurationError) as excinfo:
            matrix.MatrixEngine(2, {}, "g")
        message = str(excinfo.value)
        assert "declared dependency" in message
        assert "pip install scipy" in message


class TestEngineParity:
    """matrix must agree with the dense oracle document-for-document."""

    @pytest.mark.parametrize("criterion", ["g", "avg"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_single_fit_parity(self, corpus, criterion, seed):
        docs, statistics = corpus
        results = {}
        for engine in ENGINES:
            kmeans = NoveltyKMeans(k=4, seed=seed, engine=engine)
            kmeans.criterion = criterion
            results[engine] = kmeans.fit(docs, statistics)
        reference, result = results[DenseEngine], results[MatrixEngine]
        assert result.assignments() == reference.assignments()
        assert result.clusters == reference.clusters
        assert math.isclose(
            result.clustering_index,
            reference.clustering_index,
            rel_tol=1e-9,
        )

    def test_multi_window_warm_start_parity(self):
        repo = build_topic_repository(
            days=6, docs_per_topic_per_day=2, seed=3
        )
        batches = [
            [d for d in repo if int(d.timestamp) == day] for day in range(6)
        ]
        model = ForgettingModel(half_life=7.0, life_span=14.0)
        clusterers = {
            engine: IncrementalClusterer(model, k=4, seed=1, engine=engine)
            for engine in ENGINES
        }
        for day, batch in enumerate(batches):
            window = {}
            for engine, clusterer in clusterers.items():
                window[engine] = clusterer.process_batch(
                    batch, at_time=float(day + 1)
                )
            reference, result = window[DenseEngine], window[MatrixEngine]
            assert result.assignments() == reference.assignments(), (
                f"diverged in window {day}"
            )
            assert math.isclose(
                result.clustering_index,
                reference.clustering_index,
                rel_tol=1e-9,
            ), f"G diverged in window {day}"

    def test_outlier_parity(self, corpus):
        # k close to the document count forces outliers + empty slots,
        # exercising the engines' reseed/self-similarity paths
        docs, statistics = corpus
        results = {
            engine: NoveltyKMeans(k=4, seed=2, engine=engine).fit(
                docs[:10], statistics
            )
            for engine in ENGINES
        }
        reference, result = results[DenseEngine], results[MatrixEngine]
        assert set(result.outliers) == set(reference.outliers)
        assert result.assignments() == reference.assignments()


class TestMatrixEngine:
    def test_checkpoint_roundtrips_engine_name(self, tmp_path):
        from repro.persistence import load_checkpoint, save_checkpoint

        repo = build_topic_repository(
            days=3, docs_per_topic_per_day=2, seed=9
        )
        model = ForgettingModel(half_life=7.0, life_span=14.0)
        clusterer = IncrementalClusterer(model, k=3, seed=0)
        clusterer.process_batch(repo.documents(), at_time=3.0)
        path = tmp_path / "ck.json"
        save_checkpoint(clusterer, repo.vocabulary, path)
        restored, _ = load_checkpoint(path, repo.vocabulary)
        assert restored.kmeans.engine is MatrixEngine
        # the restored pipeline keeps clustering with the same engine
        result = restored.process_batch([], at_time=3.5)
        assert result.n_documents > 0
