"""The statistics store's held term rows.

The columnar backend holds every active document's ``(term_id, count)``
row, sorted by term, in one CSR store over its row slots; the
vectoriser builds each fit's weighted vectors from those rows instead
of re-reading the documents. These tests pin that the rows survive
insert, expiry and slot compaction unchanged, that the weighted
vectors built from them are the per-document Eq. 12-16 build bit for
bit, and that a rejected batch leaves the store as it was.
"""

import random

import numpy as np
import pytest

from repro import CorpusStatistics, ForgettingModel, NoveltyTfidfWeighter
from repro.api import build_clusterer
from repro.exceptions import ConfigurationError, UnknownDocumentError
from repro.forgetting.backends import ColumnarStatisticsBackend
from tests.conftest import make_document
from tests.oracles import DictStatisticsBackend
from tests.oracles.vectors import as_dicts, weighted_vector

BACKENDS = (DictStatisticsBackend, ColumnarStatisticsBackend)


def daily_documents(day, rng, per_day=12):
    return [
        make_document(
            f"t{day:03d}-{i:02d}", day + rng.random() * 0.9,
            {rng.randrange(300): rng.randint(1, 4)
             for _ in range(rng.randint(0, 40))},
        )
        for i in range(per_day)
    ]


def assert_rows_held(statistics):
    """Every active document's held row is its sorted term counts,
    with its weight and length."""
    documents = statistics.documents()
    rows = statistics.term_rows([doc.doc_id for doc in documents])
    assert rows.indptr.size == len(documents) + 1
    for i, doc in enumerate(documents):
        lo, hi = rows.indptr[i], rows.indptr[i + 1]
        assert list(zip(rows.term_ids[lo:hi].tolist(),
                        rows.counts[lo:hi].tolist())) == sorted(
            doc.term_counts.items())
        assert rows.weights[i] == statistics.dw(doc.doc_id)
        assert rows.lengths[i] == doc.length


def assert_vectors_match_per_document_build(statistics):
    """``weighted_arrays`` over the window equals the one-term-at-a-time
    Eq. 12-16 build from ``term_counts``, bit for bit per component."""
    documents = statistics.documents()
    arrays = NoveltyTfidfWeighter(statistics).weighted_arrays(documents)
    rows = as_dicts(arrays)
    assert list(rows) == [doc.doc_id for doc in documents]
    for doc in documents:
        assert dict(rows[doc.doc_id]) == dict(
            weighted_vector(statistics, doc)
        )
    # each row holds its terms ascending
    for row in range(len(arrays)):
        lo, hi = arrays.indptr[row], arrays.indptr[row + 1]
        assert np.all(np.diff(arrays.term_ids[lo:hi]) > 0)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_rows_survive_observe_expire_and_compaction(backend):
    rng = random.Random(4)
    statistics = CorpusStatistics(
        ForgettingModel(half_life=2.0, life_span=3.0), backend=backend
    )
    compacted = False
    slots = 0
    for day in range(30):
        statistics.observe(daily_documents(day, rng), at_time=day + 0.95)
        statistics.expire()
        if backend is ColumnarStatisticsBackend:
            # the slot count only ever falls when compaction runs
            used = statistics._backend._rows_used
            compacted = compacted or used < slots
            slots = used
        assert_rows_held(statistics)
        assert_vectors_match_per_document_build(statistics)
    if backend is ColumnarStatisticsBackend:
        # the run is long enough for the slots to have been compacted
        assert compacted


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_clone_holds_its_own_rows(backend):
    rng = random.Random(8)
    statistics = CorpusStatistics(
        ForgettingModel(half_life=2.0, life_span=3.0), backend=backend
    )
    statistics.observe(daily_documents(0, rng), at_time=0.95)
    fork = statistics.clone()
    for day in range(1, 8):
        statistics.observe(daily_documents(day, rng), at_time=day + 0.95)
        statistics.expire()
    assert_rows_held(fork)
    assert_vectors_match_per_document_build(fork)


def test_unknown_document_is_named():
    statistics = CorpusStatistics(ForgettingModel(half_life=2.0))
    statistics.observe([make_document("a", 0.0, {1: 1})], at_time=0.0)
    with pytest.raises(UnknownDocumentError, match="'ghost'"):
        statistics.term_rows(["a", "ghost"])


def snapshot_store(clusterer):
    statistics = clusterer.statistics
    ids = statistics.doc_ids()
    rows = statistics.term_rows(ids)
    backend = statistics._backend
    return (ids, [array.tolist() for array in rows], backend._rows_used,
            backend._indptr[:backend._rows_used + 1].tolist())


class TestRejectedBatch:
    @pytest.fixture
    def clusterer(self):
        rng = random.Random(2)
        clusterer = build_clusterer(k=3, half_life=2.0, life_span=3.0,
                                    seed=1)
        for day in range(6):
            clusterer.process_batch(daily_documents(day, rng), day + 0.95)
        return clusterer

    def test_invalid_batch_leaves_the_store(self, clusterer):
        before = snapshot_store(clusterer)
        duplicate = make_document("dup", 6.5, {1: 2})
        with pytest.raises(ConfigurationError):
            clusterer.process_batch([duplicate, duplicate], 6.95)
        assert snapshot_store(clusterer) == before

    def test_failed_fit_leaves_the_store(self, clusterer, monkeypatch):
        before = snapshot_store(clusterer)

        def fail(*args, **kwargs):
            raise RuntimeError("fit failed")

        monkeypatch.setattr(clusterer.kmeans, "fit_frozen", fail)
        rng = random.Random(9)
        with pytest.raises(RuntimeError, match="fit failed"):
            # the batch is observed (and the window expired) before the
            # fit fails; the rollback must undo both
            clusterer.process_batch(daily_documents(9, rng), 9.95)
        assert snapshot_store(clusterer) == before
