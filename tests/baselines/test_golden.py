"""Golden outputs of the INCR, GAC and F²ICM baselines.

The baselines' float arithmetic decides ties between near-equal
scores, so any change to it (summation order, zero pruning, the
normalisation) can move a document. These digests pin the exact
``clusters`` and ``outliers`` tuples on one small stream; a change that
moves them changes the baselines' reported numbers too.
"""

import hashlib

import pytest

from repro import CorpusStatistics, ForgettingModel
from repro.baselines import F2ICMClusterer, GACClusterer, INCRClusterer
from tests.conftest import build_topic_repository


@pytest.fixture(scope="module")
def documents():
    repository = build_topic_repository(
        days=4, docs_per_topic_per_day=2, seed=9
    )
    return repository.documents()


def digest(result):
    payload = repr((result.clusters, result.outliers)).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("clusterer, expected", [
    (INCRClusterer(),
     "befb4f513add7a9ab4fd0a48bb792575932a0fac1c16809f42ffe70dc6d1aed1"),
    # a short window: clusters scroll out and new ones are seeded
    (INCRClusterer(threshold=0.3, window_size=10),
     "f5064a653d2869607e6ee183e9af0c477e0200080ee1d8e52872a9df2bace1d7"),
], ids=["default", "short-window"])
def test_incr_clusters(documents, clusterer, expected):
    assert digest(clusterer.fit(documents)) == expected


@pytest.mark.parametrize("bucket_size", [200, 8])
def test_gac_clusters(documents, bucket_size):
    result = GACClusterer(target_clusters=4, bucket_size=bucket_size).fit(
        documents
    )
    assert digest(result) == (
        "e1d4ddb8b1634e79bac837bfd12062686d0bb035e7393dc3e4610d4e91c7bf81"
    )
    # the group-average index is a sum of dot products: pin its bits
    assert result.clustering_index == 24.471344878982084


def test_f2icm_clusters(documents):
    statistics = CorpusStatistics.from_scratch(
        ForgettingModel(half_life=7.0, life_span=30.0), documents,
        at_time=4.0,
    )
    result = F2ICMClusterer(k=4).fit(statistics.documents(), statistics)
    assert result.clusters == (
        ("d0028", "d0004", "d0005", "d0012", "d0013", "d0020", "d0021",
         "d0029"),
        ("d0027", "d0002", "d0003", "d0010", "d0011", "d0018", "d0019",
         "d0026"),
        ("d0030", "d0006", "d0007", "d0014", "d0015", "d0022", "d0023",
         "d0031"),
        ("d0024", "d0000", "d0001", "d0008", "d0009", "d0016", "d0017",
         "d0025"),
    )
    assert digest(result) == (
        "2d2e88e83ec78267b4ae2f02c5f735a9a746337bd8f33afac7e3dfd614bff113"
    )
