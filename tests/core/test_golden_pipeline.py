"""Golden outputs of the on-line pipeline and of one cold fit.

The extended K-means decides near-ties by float summation order, and
its member and outlier lists are ordered by the engine's bookkeeping.
These digests pin, per batch, the exact ``clusters`` and ``outliers``
tuples and every bit of ``index_history`` (the ``G`` of each pass,
Eq. 17). A refactor of the engine or of the fit's phases that keeps
the arithmetic must keep them unchanged.

The stream is short, noisy documents (five topic tokens each), so that
the three repair moves of the fit all fire: empty-cluster reseeding,
outlier rescue and split repair.
"""

import hashlib

import pytest

from repro import CorpusStatistics, ForgettingModel, NoveltyKMeans
from repro.api import build_clusterer
from repro.corpus.streams import iter_batches
from repro.obs import InMemoryRecorder
from tests.conftest import build_topic_repository

#: sha256 of each 1-day batch's ``(clusters, outliers, index_history)``.
STREAM_DIGESTS = (
    "639146ac9c25c5cdf124668cd4ea4effda999b736b0f32a7208cd417b5658817",
    "2c670c6a6eb7990c253fcfa7a2de76c2e0f134547613910232cc101bf16c6935",
    "d2a6571bf9a25725eb3f21a03b37c1a4ba445b48a0b6890e04147c4b859ea99b",
    "4f7c1b8743c7a33252304088c09cc7a4413af416dcca5033083abd5edb73e92d",
    "f57ecf869547bb2c19feec4d302d70a772ab82f096a3acea38963cceda9828af",
    "a2b3856a9dcde16a01e7a09defed1c362f96fe367bee514f4549f8a6cb0d83b2",
    "99c9d8848379a9063f193fabd04b731796cde9c711e230fd5e08bc944c54c1d9",
    "392a6a14ea4446cce2a9fcac9c66fa31a9ba8e6b9cb0ab275a28ca4dc58a460c",
    "03aaf0216e77715b42d6ac1305f0368af3bb5c69bd374dc00b7644455dbf9bcd",
    "ca2f18454d9f707148bede32a7cf6cf6444aa44329dc55bde92300f1fbad39f0",
    "37677b9c151536f14d8eafd34534e65b1f63a84984b84c0061e3fece29c90096",
    "79457d9cfdee6642ef785d3a93e1b1ffd4ab72331ce4dfdf252b3114e29d0eea",
    "ed244d48171ae57d8565bf8183725fb77901e80652f401d5a13ad0f53fbda0b7",
    "565e1771f532a8ea2e68d364b212521a3263f7e46ee7f5834622aa590734d2e4",
    "7dab7aa330e547014768f80c7acf047ffc23d3602cf9caa0c9a6e74ec7ed0741",
    "ce628a57ac06a018cc6e37e91bc479293fa26aabdd4a35c4cd431e7efe7ccead",
    "c6d24b4e8324caeff6073fceacf2284358ca729537098ba16aab297403280ca5",
    "e8f484ac0686f9f9db7ec5a8d6aa49fb581a8c7502a7f7df714c26d48084b89d",
    "f6cf5e6246d6a7d596701f8997f32f220c3670077a8929c4316d600b96d998c7",
    "5c4cac38c469df6379fea2085b04ea211867085e33ffcca1807e1a8898229c06",
)

COLD_AVG_DIGEST = (
    "283982432bfc59391b172d1b8aa11961d70a869e9e1d25a1b46c3d574deceea7"
)


def digest(result):
    payload = repr(
        (result.clusters, result.outliers, repr(result.index_history))
    ).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def stream_run():
    repository = build_topic_repository(
        days=20, docs_per_topic_per_day=2, seed=3, tokens_per_doc=5
    )
    recorder = InMemoryRecorder()
    clusterer = build_clusterer(
        k=8, half_life=7.0, life_span=14.0, seed=3, recorder=recorder
    )
    results = [
        clusterer.process_batch(batch, at_time)
        for at_time, batch in iter_batches(repository.documents(), 1.0)
    ]
    return results, recorder


def test_stream_digests(stream_run):
    results, _ = stream_run
    assert tuple(digest(result) for result in results) == STREAM_DIGESTS


@pytest.mark.parametrize(
    "counter", ["kmeans.reseeds", "kmeans.rescues", "kmeans.splits"]
)
def test_stream_exercises_every_repair_move(stream_run, counter):
    _, recorder = stream_run
    assert recorder.total(counter) >= 1


def test_cold_avg_fit_digest():
    repository = build_topic_repository(
        days=4, docs_per_topic_per_day=3, seed=3, tokens_per_doc=5
    )
    documents = repository.documents()
    statistics = CorpusStatistics.from_scratch(
        ForgettingModel(half_life=7.0, life_span=14.0), documents,
        at_time=4.0,
    )
    result = NoveltyKMeans(k=6, seed=3, criterion="avg").fit(
        documents, statistics
    )
    assert digest(result) == COLD_AVG_DIGEST
