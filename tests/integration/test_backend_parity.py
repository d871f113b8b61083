"""Full-pipeline parity: the statistics backend must never change results.

Both clusterers are pure functions of (documents, parameters, seed); the
backend only changes the storage layout of Eq. 27-29, so
``ColumnarStatisticsBackend`` and the ``DictStatisticsBackend`` oracle
must give *identical* assignments and a clustering index G equal to
float tolerance, under ``MatrixEngine`` and under the ``DenseEngine``
oracle alike.

The last case runs the paper-scale configuration: the Experiment 1
stream replayed through the statistics layer in 7-day batches, then one
K=32 fit on each pair.
"""

import math

import pytest

from repro import CorpusStatistics, ForgettingModel, IncrementalClusterer
from repro.core.engines import MatrixEngine
from repro.core.incremental import NonIncrementalClusterer
from repro.core.kmeans import NoveltyKMeans
from repro.corpus.streams import iter_batches
from repro.corpus.synthetic import TDT2Generator
from repro.experiments import ExperimentOneConfig
from repro.forgetting.backends import ColumnarStatisticsBackend
from tests.conftest import build_topic_repository
from tests.oracles import DenseEngine, DictStatisticsBackend

BACKENDS = (DictStatisticsBackend, ColumnarStatisticsBackend)
#: (statistics backend, engine): the oracle pair, then the production one
PAIRS = ((DictStatisticsBackend, DenseEngine),
         (ColumnarStatisticsBackend, MatrixEngine))


def _replay(clusterer, repo, days):
    result = None
    for day in range(days):
        batch = [d for d in repo if int(d.timestamp) == day]
        if batch:
            result = clusterer.process_batch(batch, at_time=float(day + 1))
    return result


@pytest.mark.parametrize("engine", (DenseEngine, MatrixEngine),
                         ids=lambda engine: engine.name)
def test_incremental_backends_agree(engine):
    repo = build_topic_repository(days=8, docs_per_topic_per_day=3, seed=11)
    results = {}
    for backend in BACKENDS:
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(
            model, k=4, seed=2, engine=engine, statistics_backend=backend,
        )
        results[backend.name] = _replay(clusterer, repo, days=8)
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
        clusterer = NonIncrementalClusterer(
            model, k=4, seed=2, statistics_backend=backend,
        )
        results[backend.name] = _replay(clusterer, repo, days=6)
    assert results["columnar"].assignments() == results["dict"].assignments()
    assert math.isclose(
        results["columnar"].clustering_index,
        results["dict"].clustering_index,
        rel_tol=1e-9,
    )


def test_experiment1_stream_pairs_agree():
    config = ExperimentOneConfig(seed=1998, unlabeled_per_day=20.0)
    repo = TDT2Generator(config.corpus_config()).generate()
    docs = sorted(
        (d for d in repo.documents() if d.timestamp < config.days),
        key=lambda d: (d.timestamp, d.doc_id),
    )
    model = ForgettingModel(config.half_life, config.life_span)
    batches = list(iter_batches(docs, 7.0))

    final = {}
    for backend in BACKENDS:
        stats = CorpusStatistics(model, backend=backend)
        for at_time, batch in batches:
            stats.observe(batch, at_time=at_time)
            stats.expire()
        final[backend] = stats
    oracle, production = (final[backend] for backend in BACKENDS)
    assert production.doc_ids() == oracle.doc_ids()
    assert math.isclose(production.tdw, oracle.tdw, rel_tol=1e-9)

    reference, result = (
        NoveltyKMeans(k=config.k, seed=3, engine=engine).fit(
            final[backend].documents(), final[backend]
        )
        for backend, engine in PAIRS
    )
    assert result.assignments() == reference.assignments()
    assert math.isclose(result.clustering_index,
                        reference.clustering_index, rel_tol=1e-9)
