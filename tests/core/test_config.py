"""Tests for ClustererConfig and the constructor compatibility layer."""

import dataclasses

import pytest

from repro import (
    ClustererConfig,
    ForgettingModel,
    IncrementalClusterer,
    NonIncrementalClusterer,
)
from repro.core.engines import MatrixEngine
from repro.exceptions import ConfigurationError
from tests.oracles import DenseEngine


@pytest.fixture
def model():
    return ForgettingModel(half_life=7.0, life_span=14.0)


class TestClustererConfig:
    def test_shared_config_builds_both_pipelines(self, model):
        config = ClustererConfig(
            k=6, delta=0.05, max_iterations=12, seed=42, engine=DenseEngine
        )
        incremental = IncrementalClusterer(model, config)
        baseline = NonIncrementalClusterer(model, config)
        for clusterer in (incremental, baseline):
            assert clusterer.kmeans.k == 6
            assert clusterer.kmeans.delta == 0.05
            assert clusterer.kmeans.max_iterations == 12
            assert clusterer.kmeans.seed == 42
            assert clusterer.kmeans.engine is DenseEngine

    def test_config_keyword_and_replace(self, model):
        config = ClustererConfig(k=4, engine=DenseEngine)
        fast = dataclasses.replace(config, engine=MatrixEngine)
        clusterer = IncrementalClusterer(model, config=fast)
        assert clusterer.kmeans.engine is MatrixEngine

    def test_explicit_keywords_override_config(self, model):
        config = ClustererConfig(k=4, seed=1)
        clusterer = IncrementalClusterer(model, config, seed=9,
                                         warm_start=False)
        assert clusterer.kmeans.seed == 9
        assert clusterer.kmeans.k == 4
        assert clusterer.warm_start is False

    def test_pipeline_switches_stay_out_of_config(self):
        names = {f.name for f in dataclasses.fields(ClustererConfig)}
        assert names == {
            "k", "delta", "max_iterations", "seed", "engine",
            "statistics_backend", "recorder",
        }

    def test_k_is_required(self, model):
        with pytest.raises(ConfigurationError, match="k is required"):
            IncrementalClusterer(model)
        with pytest.raises(ConfigurationError, match="k is required"):
            NonIncrementalClusterer(model)

    def test_config_given_twice_rejected(self, model):
        config = ClustererConfig(k=4)
        with pytest.raises(ConfigurationError, match="config"):
            IncrementalClusterer(model, config, config=config)


class TestLegacyPositional:
    """The pre-config positional protocol is gone: TypeError, not warning."""

    def test_keyword_calls_do_not_warn(self, model, recwarn):
        IncrementalClusterer(model, k=4, seed=0)
        NonIncrementalClusterer(model, k=4, seed=0)
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]

    def test_config_positional_is_the_blessed_shape(self, model, recwarn):
        clusterer = IncrementalClusterer(model, ClustererConfig(k=4))
        assert clusterer.kmeans.k == 4
        assert not recwarn.list

    def test_incremental_positionals_raise_with_migration_hint(self, model):
        with pytest.raises(TypeError) as excinfo:
            IncrementalClusterer(model, 5, 0.02, 10, 3, "matrix", False)
        message = str(excinfo.value)
        assert "no longer accepts positional arguments" in message
        # the hint names the keywords the stray positionals map to
        assert "k=..." in message and "engine=..." in message
        assert "repro.api.open_stream" in message

    def test_nonincremental_positionals_raise(self, model):
        with pytest.raises(TypeError, match="no longer accepts positional"):
            NonIncrementalClusterer(model, 5, 0.02)

    def test_single_positional_raises(self, model):
        with pytest.raises(TypeError, match="ClustererConfig"):
            IncrementalClusterer(model, 5, k=5)

    def test_too_many_positionals(self, model):
        with pytest.raises(TypeError, match="positional"):
            NonIncrementalClusterer(
                model, 5, 0.01, 30, 0, "dense", None, "extra"
            )
