"""The default construction path decides exactly as the reference pair.

``open_stream`` with its defaults runs ``DEFAULT_PATH`` (the ``matrix``
engine over ``columnar`` statistics); ``build_clusterer(engine="dense",
statistics_backend="dict")`` is the per-document numpy engine over the
plain-Python statistics. Both drive the one K-means loop (outlier
rescue and split repair included), so on a seeded TDT2-like stream
every batch must yield identical clusters and outliers, with G equal
to 1e-9.
"""

import dataclasses
import inspect
import math

from repro import build_clusterer, open_stream
from repro.core import estimate_k
from repro.core.config import DEFAULT_PATH, ClustererConfig
from repro.core.kmeans import NoveltyKMeans
from repro.corpus.streams import iter_batches
from repro.corpus.synthetic import SyntheticCorpusConfig, TDT2Generator
from repro.experiments.experiment1 import ExperimentOneConfig
from repro.experiments.experiment2 import ExperimentTwoConfig
from repro.obs import InMemoryRecorder

KNOBS = {"k": 16, "half_life": 7.0, "life_span": 14.0, "seed": 1998}


def _digest(clusters, outliers, g):
    return (tuple(tuple(sorted(c)) for c in clusters),
            tuple(sorted(outliers)), g)


def test_every_entry_point_reads_the_one_default_pair():
    fields = {f.name: f.default for f in dataclasses.fields(ClustererConfig)}
    assert fields["engine"] is DEFAULT_PATH.engine
    assert fields["statistics_backend"] is DEFAULT_PATH.statistics_backend
    for function in (build_clusterer, open_stream):
        parameters = inspect.signature(function).parameters
        assert parameters["engine"].default is DEFAULT_PATH.engine
        assert (parameters["statistics_backend"].default
                is DEFAULT_PATH.statistics_backend)
    for function in (NoveltyKMeans, estimate_k):
        parameters = inspect.signature(function).parameters
        assert parameters["engine"].default is DEFAULT_PATH.engine
    assert ExperimentOneConfig().engine is DEFAULT_PATH.engine
    assert ExperimentTwoConfig().engine is DEFAULT_PATH.engine
    assert DEFAULT_PATH == ("matrix", "columnar")

    clusterer = build_clusterer(k=2)
    assert clusterer.kmeans.engine == DEFAULT_PATH.engine
    assert (clusterer.statistics.backend_name
            == DEFAULT_PATH.statistics_backend)
    with open_stream(k=2) as session:
        assert session.clusterer.kmeans.engine == DEFAULT_PATH.engine
        assert (session.clusterer.statistics.backend_name
                == DEFAULT_PATH.statistics_backend)


def test_default_stream_matches_dense_dict_on_every_batch():
    repository = TDT2Generator(
        SyntheticCorpusConfig(seed=1998, total_documents=1500)
    ).generate()
    batches = list(iter_batches(list(repository.documents()), 7.0))

    recorder = InMemoryRecorder()
    reference = build_clusterer(
        **KNOBS, engine="dense", statistics_backend="dict",
        recorder=recorder,
    )
    expected = []
    for at_time, batch in batches:
        result = reference.process_batch(batch, at_time=at_time)
        expected.append(_digest(result.clusters, result.outliers,
                                result.clustering_index))
    # the stream exercises both repairs, not just the assignment sweep
    assert recorder.select(name="kmeans.rescues")
    assert recorder.select(name="kmeans.splits")

    with open_stream(**KNOBS) as session:
        for (at_time, batch), (clusters, outliers, g) in zip(
            batches, expected
        ):
            session.add(batch, at_time=at_time)
            snapshot = session.flush()
            served = _digest(snapshot.clusters, snapshot.outliers,
                             snapshot.clustering_index)
            assert served[:2] == (clusters, outliers), at_time
            assert math.isclose(served[2], g, rel_tol=1e-9), at_time
