"""The default construction path decides exactly as the oracle pair.

``open_stream`` runs the library's one engine/backend pair
(``MatrixEngine`` over ``ColumnarStatisticsBackend``); an
``IncrementalClusterer(model, ..., engine=DenseEngine,
statistics_backend=DictStatisticsBackend)`` passes in the tests'
oracles (``tests/oracles``): the per-document numpy engine over the
plain-Python statistics. Both drive the one K-means loop
(outlier rescue and split repair included), so on a seeded TDT2-like
stream every batch must yield identical clusters and outliers, with G
equal to 1e-9.
"""

import inspect
import math

from repro import (
    CorpusStatistics,
    ForgettingModel,
    IncrementalClusterer,
    NonIncrementalClusterer,
    build_clusterer,
    open_stream,
    recover,
)
from repro.core import estimate_k
from repro.core.engines import MatrixEngine
from repro.core.kmeans import NoveltyKMeans
from repro.corpus.streams import iter_batches
from repro.corpus.synthetic import SyntheticCorpusConfig, TDT2Generator
from repro.experiments.experiment1 import ExperimentOneConfig
from repro.experiments.experiment2 import ExperimentTwoConfig
from repro.forgetting.backends import ColumnarStatisticsBackend
from repro.obs import InMemoryRecorder
from repro.persistence import load_checkpoint
from tests.oracles import DenseEngine, DictStatisticsBackend

MODEL = {"half_life": 7.0, "life_span": 14.0}
KMEANS = {"k": 16, "seed": 1998}


def _digest(clusters, outliers, g):
    return (tuple(tuple(sorted(c)) for c in clusters),
            tuple(sorted(outliers)), g)


def test_every_entry_point_reads_the_one_default_pair():
    assert (MatrixEngine.name, ColumnarStatisticsBackend.name) == (
        "matrix", "columnar")
    for cls in (IncrementalClusterer, NonIncrementalClusterer):
        parameters = inspect.signature(cls).parameters
        assert parameters["engine"].default is MatrixEngine
        assert (parameters["statistics_backend"].default
                is ColumnarStatisticsBackend)
    assert (inspect.signature(NoveltyKMeans).parameters["engine"].default
            is MatrixEngine)
    for function in (CorpusStatistics, CorpusStatistics.from_scratch):
        parameters = inspect.signature(function).parameters
        assert parameters["backend"].default is ColumnarStatisticsBackend
    # the seams above are the only ones: no entry point takes a knob
    for function in (build_clusterer, open_stream, estimate_k,
                     load_checkpoint, recover):
        parameters = inspect.signature(function).parameters
        assert "engine" not in parameters, function
        assert "statistics_backend" not in parameters, function
    for config in (ExperimentOneConfig(), ExperimentTwoConfig()):
        assert not hasattr(config, "engine")

    clusterer = build_clusterer(k=2)
    assert clusterer.kmeans.engine is MatrixEngine
    assert clusterer.statistics.backend_name == "columnar"
    with open_stream(k=2) as session:
        assert session.clusterer.kmeans.engine is MatrixEngine
        assert session.clusterer.statistics.backend_name == "columnar"


def test_default_stream_matches_dense_dict_on_every_batch():
    repository = TDT2Generator(
        SyntheticCorpusConfig(seed=1998, total_documents=1500)
    ).generate()
    batches = list(iter_batches(list(repository.documents()), 7.0))

    recorder = InMemoryRecorder()
    reference = IncrementalClusterer(
        ForgettingModel(**MODEL), **KMEANS, engine=DenseEngine,
        statistics_backend=DictStatisticsBackend, recorder=recorder,
    )
    expected = []
    for at_time, batch in batches:
        result = reference.process_batch(batch, at_time=at_time)
        expected.append(_digest(result.clusters, result.outliers,
                                result.clustering_index))
    # the stream exercises both repairs, not just the assignment sweep
    assert recorder.select(name="kmeans.rescues")
    assert recorder.select(name="kmeans.splits")

    with open_stream(**KMEANS, **MODEL) as session:
        for (at_time, batch), (clusters, outliers, g) in zip(
            batches, expected
        ):
            session.add(batch, at_time=at_time)
            snapshot = session.flush()
            served = _digest(snapshot.clusters, snapshot.outliers,
                             snapshot.clustering_index)
            assert served[:2] == (clusters, outliers), at_time
            assert math.isclose(served[2], g, rel_tol=1e-9), at_time
