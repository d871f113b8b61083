"""MatrixEngine's output does not depend on its speculation window.

The sweep resolves runs of net-stationary documents in one broadcast
(``_speculate``, looking ``SPECULATE_WINDOW`` documents ahead) and the
rest one by one. Both paths must leave a stationary document's state
alike — decided first, restamped, nothing removed and re-added — or
the window would decide which documents round-trip ``cr_sim``, ``ss``
and the representatives through rounding, and ``G`` would change with
it. On this stream a window of 16 used to change the last bits of the
20th fit's ``index_history``.
"""

import hashlib

import pytest

from repro.api import build_clusterer
from repro.core.engines import matrix
from repro.corpus.streams import iter_batches
from repro.corpus.synthetic import SyntheticCorpusConfig, TDT2Generator


def digest(result):
    payload = repr(
        (result.clusters, result.outliers, repr(result.index_history))
    ).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def documents():
    config = SyntheticCorpusConfig(seed=7, total_documents=2000)
    return TDT2Generator(config).generate().documents()


def online_digests(documents):
    clusterer = build_clusterer(k=32, half_life=7.0, life_span=14.0, seed=7)
    return [
        digest(clusterer.process_batch(batch, at_time))
        for at_time, batch in iter_batches(documents, 7.0)
    ]


def test_online_digests_do_not_depend_on_the_window(documents, monkeypatch):
    runs = {}
    for window in (16, 64, 256):
        monkeypatch.setattr(matrix, "SPECULATE_WINDOW", window)
        runs[window] = online_digests(documents)
    assert len(runs[64]) > 20
    assert runs[16] == runs[64] == runs[256]
