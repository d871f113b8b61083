"""Tests for the incremental/non-incremental clustering pipelines (§5.2)."""

import gc
import math
import weakref

import pytest

from repro import (
    ForgettingModel,
    IncrementalClusterer,
    NonIncrementalClusterer,
)
from repro.exceptions import ClusteringError
from tests.conftest import build_topic_repository


def day_batches(repo, days):
    return [
        [d for d in repo if int(d.timestamp) == day] for day in range(days)
    ]


@pytest.fixture
def stream():
    repo = build_topic_repository(days=8, docs_per_topic_per_day=2, seed=4)
    return repo, day_batches(repo, 8)


class TestIncrementalClusterer:
    def test_process_stream(self, stream):
        repo, batches = stream
        model = ForgettingModel(half_life=7.0, life_span=14.0)
        clusterer = IncrementalClusterer(model, k=4, seed=0)
        results = [
            clusterer.process_batch(batch, at_time=float(day + 1))
            for day, batch in enumerate(batches)
        ]
        assert len(results) == 8
        result = results[-1]
        assert clusterer.last_result is result
        covered = result.n_documents + len(result.outliers)
        assert covered == repo.size  # nothing expired within 8 days

    def test_expiry_drops_old_documents(self, stream):
        repo, batches = stream
        model = ForgettingModel(half_life=2.0, life_span=4.0)
        clusterer = IncrementalClusterer(model, k=3, seed=0)
        for day, batch in enumerate(batches):
            clusterer.process_batch(batch, at_time=float(day + 1))
        active_ids = set(clusterer.statistics.doc_ids())
        for doc in repo:
            if doc.timestamp < 3.0:
                assert doc.doc_id not in active_ids

    def test_expired_docs_leave_assignments(self, stream):
        _, batches = stream
        model = ForgettingModel(half_life=2.0, life_span=4.0)
        clusterer = IncrementalClusterer(model, k=3, seed=0)
        for day, batch in enumerate(batches):
            clusterer.process_batch(batch, at_time=float(day + 1))
        assignments = clusterer.assignments()
        assert set(assignments) <= set(clusterer.statistics.doc_ids())

    def test_timings_present(self, stream):
        _, batches = stream
        model = ForgettingModel(half_life=7.0, life_span=14.0)
        clusterer = IncrementalClusterer(model, k=3, seed=0)
        result = clusterer.process_batch(batches[0], at_time=1.0)
        assert "statistics" in result.timings
        assert "clustering" in result.timings

    def test_all_expired_raises(self):
        repo = build_topic_repository(days=1, topics=["sports"])
        model = ForgettingModel(half_life=1.0, life_span=2.0)
        clusterer = IncrementalClusterer(model, k=2, seed=0)
        clusterer.process_batch(repo.documents(), at_time=1.0)
        with pytest.raises(ClusteringError):
            clusterer.process_batch([], at_time=100.0)

    def test_warm_start_cheaper_than_cold(self, stream):
        """Second batch with warm start should need no more iterations
        than a cold restart over the same data."""
        _, batches = stream
        model = ForgettingModel(half_life=7.0, life_span=30.0)

        warm = IncrementalClusterer(model, k=4, seed=0, warm_start=True)
        cold = IncrementalClusterer(model, k=4, seed=0, warm_start=False)
        warm_results, cold_results = [], []
        for day, batch in enumerate(batches):
            warm_results.append(
                warm.process_batch(batch, at_time=float(day + 1))
            )
            cold_results.append(
                cold.process_batch(batch, at_time=float(day + 1))
            )
        total_warm = sum(r.iterations for r in warm_results[1:])
        total_cold = sum(r.iterations for r in cold_results[1:])
        assert total_warm <= total_cold

    def test_statistics_stay_consistent(self, stream):
        _, batches = stream
        model = ForgettingModel(half_life=3.0, life_span=6.0)
        clusterer = IncrementalClusterer(model, k=3, seed=0)
        for day, batch in enumerate(batches):
            clusterer.process_batch(batch, at_time=float(day + 1))
            clusterer.statistics.validate()


class TestNonIncrementalClusterer:
    def test_rebuilds_from_archive(self, stream):
        repo, batches = stream
        model = ForgettingModel(half_life=7.0, life_span=14.0)
        clusterer = NonIncrementalClusterer(model, k=4, seed=0)
        for day, batch in enumerate(batches):
            result = clusterer.process_batch(batch, at_time=float(day + 1))
        assert len(clusterer.archive) == repo.size
        covered = result.n_documents + len(result.outliers)
        assert covered == repo.size

    def test_matches_incremental_statistics(self, stream):
        """Paper's future-work question, settled at the statistics level:
        the two pipelines see identical statistics at every step."""
        _, batches = stream
        model = ForgettingModel(half_life=3.0, life_span=9.0)
        incremental = IncrementalClusterer(model, k=3, seed=0)
        non_incremental = NonIncrementalClusterer(model, k=3, seed=0)
        for day, batch in enumerate(batches):
            at = float(day + 1)
            incremental.process_batch(batch, at_time=at)
            non_incremental.process_batch(batch, at_time=at)
            inc = incremental.statistics
            non = non_incremental.statistics
            assert set(inc.doc_ids()) == set(non.doc_ids())
            assert math.isclose(inc.tdw, non.tdw, rel_tol=1e-9)
            for term_id in non.term_ids():
                assert math.isclose(
                    inc.pr_term(term_id), non.pr_term(term_id),
                    rel_tol=1e-9,
                )


@pytest.mark.parametrize(
    "pipeline", [IncrementalClusterer, NonIncrementalClusterer]
)
def test_only_the_last_result_is_kept(stream, pipeline):
    """A committed result is freed once a later batch replaces it: the
    pipeline's state follows the window, not the whole stream."""
    _, batches = stream
    model = ForgettingModel(half_life=7.0, life_span=14.0)
    clusterer = pipeline(model, k=4, seed=0)
    assert clusterer.last_result is None
    first = weakref.ref(clusterer.process_batch(batches[0], at_time=1.0))
    for day in range(1, 4):
        last = clusterer.process_batch(batches[day], at_time=float(day + 1))
    gc.collect()
    assert first() is None
    assert clusterer.last_result is last


class TestFailedBatchSafety:
    def test_cold_start_too_few_docs_leaves_state_untouched(self):
        """Regression: a failed first batch used to poison the
        statistics (documents already ingested, retry impossible)."""
        from tests.conftest import make_document

        model = ForgettingModel(half_life=7.0)
        clusterer = IncrementalClusterer(model, k=8, seed=0)
        docs = [make_document(f"d{i}", 0.0, {0: 1}) for i in range(3)]
        with pytest.raises(ClusteringError):
            clusterer.process_batch(docs, at_time=1.0)
        assert clusterer.statistics.size == 0
        # retry with enough documents succeeds, no duplicate errors
        more = docs + [
            make_document(f"e{i}", 1.0, {i % 4: 1}) for i in range(8)
        ]
        result = clusterer.process_batch(more, at_time=1.5)
        assert result.n_documents + len(result.outliers) == 11

    def test_non_incremental_failed_batch_rolls_back_archive(self):
        from tests.conftest import make_document

        model = ForgettingModel(half_life=7.0)
        clusterer = NonIncrementalClusterer(model, k=8, seed=0)
        docs = [make_document(f"d{i}", 0.0, {0: 1}) for i in range(3)]
        with pytest.raises(ClusteringError):
            clusterer.process_batch(docs, at_time=1.0)
        assert clusterer.archive == []
        more = docs + [
            make_document(f"e{i}", 1.0, {i % 4: 1}) for i in range(8)
        ]
        result = clusterer.process_batch(more, at_time=1.5)
        assert len(clusterer.archive) == 11
