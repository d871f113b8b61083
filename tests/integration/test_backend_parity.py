"""Full-pipeline parity: the statistics backend must never change results.

Both clusterers are pure functions of (documents, parameters, seed); the
backend only changes the storage layout of Eq. 27-29, so the
``columnar`` backend and the ``dict`` oracle must give *identical*
assignments and a clustering index G equal to float tolerance, under
the ``matrix`` engine and under the ``dense`` oracle alike.
"""

import math

import pytest

from repro import ForgettingModel, IncrementalClusterer
from repro.core.config import ClustererConfig
from repro.core.engines import DEFAULT_ENGINE
from repro.core.incremental import NonIncrementalClusterer
from repro.forgetting.backends import DEFAULT_BACKEND
from tests.conftest import build_topic_repository
from tests.oracles import ORACLE_BACKEND, ORACLE_ENGINE

BACKENDS = (ORACLE_BACKEND, DEFAULT_BACKEND)


def _replay(clusterer, repo, days):
    result = None
    for day in range(days):
        batch = [d for d in repo if int(d.timestamp) == day]
        if batch:
            result = clusterer.process_batch(batch, at_time=float(day + 1))
    return result


@pytest.mark.parametrize("engine", (ORACLE_ENGINE, DEFAULT_ENGINE))
def test_incremental_backends_agree(engine):
    repo = build_topic_repository(days=8, docs_per_topic_per_day=3, seed=11)
    results = {}
    for backend in BACKENDS:
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(model, ClustererConfig(
            k=4, seed=2, engine=engine, statistics_backend=backend,
        ))
        results[backend] = _replay(clusterer, repo, days=8)
    dict_result, columnar_result = results["dict"], results["columnar"]
    assert columnar_result.assignments() == dict_result.assignments()
    assert math.isclose(
        columnar_result.clustering_index, dict_result.clustering_index,
        rel_tol=1e-9,
    )


def test_nonincremental_backends_agree():
    repo = build_topic_repository(days=6, docs_per_topic_per_day=3, seed=5)
    results = {}
    for backend in BACKENDS:
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = NonIncrementalClusterer(model, ClustererConfig(
            k=4, seed=2, statistics_backend=backend,
        ))
        results[backend] = _replay(clusterer, repo, days=6)
    assert results["columnar"].assignments() == results["dict"].assignments()
    assert math.isclose(
        results["columnar"].clustering_index,
        results["dict"].clustering_index,
        rel_tol=1e-9,
    )
