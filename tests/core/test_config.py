"""Tests for the settings both clustering pipelines take as keywords."""

import pytest

from repro import ForgettingModel, IncrementalClusterer, NonIncrementalClusterer
from tests.oracles import DenseEngine, DictStatisticsBackend


@pytest.fixture
def model():
    return ForgettingModel(half_life=7.0, life_span=14.0)


class TestSharedSettings:
    def test_shared_settings_build_both_pipelines(self, model):
        settings = dict(
            k=6, delta=0.05, max_iterations=12, seed=42, engine=DenseEngine,
            statistics_backend=DictStatisticsBackend,
        )
        incremental = IncrementalClusterer(model, **settings)
        baseline = NonIncrementalClusterer(model, **settings)
        for clusterer in (incremental, baseline):
            assert clusterer.kmeans.k == 6
            assert clusterer.kmeans.delta == 0.05
            assert clusterer.kmeans.max_iterations == 12
            assert clusterer.kmeans.seed == 42
            assert clusterer.kmeans.engine is DenseEngine
        assert incremental.statistics.backend_name == "dict"
        assert baseline.statistics_backend is DictStatisticsBackend

    def test_k_is_required(self, model):
        with pytest.raises(TypeError, match="'k'"):
            IncrementalClusterer(model)
        with pytest.raises(TypeError, match="'k'"):
            NonIncrementalClusterer(model)


class TestLegacyPositional:
    """Every setting after ``model`` is keyword-only."""

    def test_keyword_calls_do_not_warn(self, model, recwarn):
        IncrementalClusterer(model, k=4, seed=0)
        NonIncrementalClusterer(model, k=4, seed=0)
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]

    def test_nonincremental_positionals_raise(self, model):
        with pytest.raises(TypeError, match="positional"):
            NonIncrementalClusterer(model, 5, 0.02)

    def test_single_positional_raises(self, model):
        with pytest.raises(TypeError, match="positional"):
            IncrementalClusterer(model, 5, k=5)

    def test_too_many_positionals(self, model):
        with pytest.raises(TypeError, match="positional"):
            NonIncrementalClusterer(
                model, 5, 0.01, 30, 0, "dense", None, "extra"
            )
