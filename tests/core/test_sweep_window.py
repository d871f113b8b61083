"""The matrix engine's live gain window decides as the dense oracle does.

``MatrixEngine`` decides a window of ``SPECULATE_WINDOW`` documents at
once and, after each move, re-scores only the two clusters the move
changed: their rows of the window and the own-cluster gains of their
later members. Every decision must still be the one the paper's
one-document-at-a-time loop (``DenseEngine``) makes, wherever in the
window a mover lands and wherever a block boundary falls: windows of 1,
2 and 3 put movers at every offset, and blocks of 1 and 5 put block
boundaries inside windows.
"""

import hashlib

import numpy as np
import pytest

from repro import CorpusStatistics, ForgettingModel, NoveltyKMeans
from repro.core.engines import MatrixEngine, matrix
from repro.corpus.streams import iter_batches
from repro.corpus.synthetic import SyntheticCorpusConfig, TDT2Generator
from tests.oracles import DenseEngine

WINDOWS = (1, 2, 3, 64)
BLOCKS = (1, 5, 32, 256)
CRITERIA = ("g", "avg")


@pytest.fixture(scope="module")
def batches():
    config = SyntheticCorpusConfig(seed=11, total_documents=500)
    documents = TDT2Generator(config).generate().documents()
    return list(iter_batches(documents, 7.0))[:5]


def recording(base, decisions, **options):
    """``base`` with every ``best_gains`` answer appended to
    ``decisions``."""

    class Recording(base):
        def __init__(self, k, vectors, criterion):
            super().__init__(k, vectors, criterion, **options)

        def best_gains(self, rows):
            best, gain = super().best_gains(rows)
            decisions.append((best.copy(), gain.copy()))
            return best, gain

    Recording.name = base.name
    return Recording


def run(engine, criterion, batches):
    """A cold fit, then warm-started fits over the later windows."""
    model = ForgettingModel(half_life=7.0, life_span=14.0)
    statistics = CorpusStatistics(model)
    kmeans = NoveltyKMeans(k=8, seed=5, engine=engine, criterion=criterion,
                           rescue_outliers=True)
    assignment = None
    results = []
    for at_time, batch in batches:
        statistics.observe(batch, at_time)
        statistics.expire()
        result = kmeans.fit(statistics.documents(), statistics,
                            initial_assignment=assignment)
        assignment = {doc_id: cluster_id
                      for cluster_id, members in enumerate(result.clusters)
                      for doc_id in members}
        results.append(result)
    return results


def digest(results):
    payload = repr([
        (r.clusters, r.outliers, repr(r.index_history)) for r in results
    ]).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def dense_runs(batches):
    runs = {}
    for criterion in CRITERIA:
        decisions = []
        results = run(recording(DenseEngine, decisions), criterion, batches)
        runs[criterion] = (decisions, results)
    return runs


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("block_size", BLOCKS)
def test_window_decides_as_the_dense_oracle(
    criterion, block_size, batches, dense_runs, monkeypatch
):
    dense_decisions, dense_results = dense_runs[criterion]
    digests = set()
    for window in WINDOWS:
        monkeypatch.setattr(matrix, "SPECULATE_WINDOW", window)
        decisions = []
        engine = recording(MatrixEngine, decisions, block_size=block_size)
        results = run(engine, criterion, batches)
        assert len(decisions) == len(dense_decisions)
        for (best, gain), (dense_best, dense_gain) in zip(
            decisions, dense_decisions
        ):
            assert np.array_equal(best, dense_best)
            np.testing.assert_allclose(gain, dense_gain, rtol=1e-9,
                                       atol=1e-12)
        for result, dense in zip(results, dense_results):
            # members() order is the oracle's insertion order
            assert result.clusters == dense.clusters
            assert result.outliers == dense.outliers
            np.testing.assert_allclose(result.index_history,
                                       dense.index_history, rtol=1e-9)
        digests.add(digest(results))
    # for one block size, the window's length changes no output bit
    assert len(digests) == 1
