"""Regression tests: batch ingestion is transactional (ISSUE 1).

Three historical bugs are pinned here:

1. ``CorpusStatistics.observe`` mutated state (clock + earlier batch
   members) before a bad document mid-batch raised;
2. ``IncrementalClusterer.process_batch``'s cold-start guard counted
   documents that step 2 then expired, so ``NoveltyKMeans.fit`` raised
   *after* the statistics were mutated;
3. ``NonIncrementalClusterer.process_batch`` rolled a failed batch out
   of the archive but kept the statistics rebuild that included it.

In every failure mode the state must be exactly the pre-batch state —
``validate()`` passes, sizes unchanged — and the corrected batch must
be re-sendable.
"""

import math

import pytest

from repro import (
    ForgettingModel,
    IncrementalClusterer,
    NonIncrementalClusterer,
)
from repro.core.engines import MatrixEngine
from repro.exceptions import ClusteringError, ConfigurationError
from tests.conftest import build_topic_repository, make_document
from tests.oracles import DenseEngine


@pytest.fixture
def model():
    return ForgettingModel(half_life=7.0, life_span=14.0)


def fresh_docs(prefix, n, timestamp, first_term=0):
    """n well-formed single-term documents at ``timestamp``."""
    return [
        make_document(f"{prefix}{i}", timestamp, {first_term + i: 2, 99: 1})
        for i in range(n)
    ]


class TestObserveAtomicity:
    def test_future_doc_mid_batch_leaves_state_untouched(self, model):
        from repro import CorpusStatistics

        stats = CorpusStatistics(model)
        stats.observe(fresh_docs("old", 3, 0.0), at_time=0.0)
        size_before, tdw_before, now_before = (
            stats.size, stats.tdw, stats.now
        )
        bad_batch = fresh_docs("new", 2, 5.0) + [
            make_document("future", 9.0, {7: 1})
        ]
        with pytest.raises(ConfigurationError):
            stats.observe(bad_batch, at_time=5.0)
        # nothing mutated: no partial insert, no clock advance
        assert stats.size == size_before
        assert stats.tdw == tdw_before
        assert stats.now == now_before
        assert "new0" not in stats
        stats.validate()

    def test_intra_batch_duplicate_rejected_before_mutation(self, model):
        from repro import CorpusStatistics

        stats = CorpusStatistics(model)
        doc = make_document("twin", 0.0, {0: 1})
        with pytest.raises(ConfigurationError):
            stats.observe(
                [make_document("a", 0.0, {1: 1}), doc, doc], at_time=0.0
            )
        assert stats.size == 0
        assert stats.now is None
        stats.validate()

    def test_duplicate_of_tracked_doc_rejected_before_mutation(self, model):
        from repro import CorpusStatistics

        stats = CorpusStatistics(model)
        stats.observe([make_document("a", 0.0, {0: 1})], at_time=0.0)
        with pytest.raises(ConfigurationError):
            stats.observe(
                [make_document("b", 1.0, {1: 1}),
                 make_document("a", 1.0, {0: 1})],
                at_time=1.0,
            )
        assert stats.size == 1
        assert "b" not in stats
        assert stats.now == 0.0
        stats.validate()

    @pytest.mark.parametrize("at_time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected_before_mutation(self, model, at_time):
        from repro import CorpusStatistics

        stats = CorpusStatistics(model)
        stats.observe(fresh_docs("old", 3, 0.0), at_time=0.0)
        tdw_before = stats.tdw
        with pytest.raises(ConfigurationError, match="finite"):
            stats.observe(fresh_docs("new", 2, 0.0), at_time=at_time)
        with pytest.raises(ConfigurationError, match="finite"):
            stats.advance_to(at_time)
        with pytest.raises(ConfigurationError, match="finite"):
            CorpusStatistics.from_scratch(model, fresh_docs("x", 2, 0.0),
                                          at_time=at_time)
        assert (stats.size, stats.tdw, stats.now) == (3, tdw_before, 0.0)
        # the clock was never poisoned: a real batch time still works
        stats.observe(fresh_docs("new", 2, 1.0), at_time=1.0)
        assert math.isfinite(stats.tdw) and stats.tdw > 0.0
        stats.validate()

    def test_rejected_batch_is_resendable(self, model):
        from repro import CorpusStatistics

        stats = CorpusStatistics(model)
        good = fresh_docs("d", 4, 1.0)
        with pytest.raises(ConfigurationError):
            stats.observe(good + [make_document("future", 9.0, {5: 1})],
                          at_time=1.0)
        # the same good documents go through once corrected
        assert stats.observe(good, at_time=1.0) == 4
        assert stats.size == 4
        stats.validate()


class TestIncrementalColdStartGuard:
    def test_expiring_batch_fails_cleanly(self, model):
        """Backdated docs expire in step 2; the guard must re-check.

        8 documents pass the pre-check (8 >= k=4), but 5 of them are
        older than the life span and expire immediately, leaving 3
        active — the historical bug let ``fit`` raise *after* the
        statistics were poisoned.
        """
        clusterer = IncrementalClusterer(model, k=4, seed=0)
        batch = fresh_docs("fresh", 3, 20.0) + fresh_docs(
            "stale", 5, 1.0, first_term=10
        )
        with pytest.raises(ClusteringError):
            clusterer.process_batch(batch, at_time=20.0)
        # full rollback: corpus empty again, clock reset, no result
        assert clusterer.statistics.size == 0
        assert clusterer.statistics.now is None
        assert clusterer.last_result is None
        assert clusterer.assignments() == {}
        clusterer.statistics.validate()

    def test_failed_batch_is_resendable_with_reinforcements(self, model):
        clusterer = IncrementalClusterer(model, k=4, seed=0)
        batch = fresh_docs("fresh", 3, 20.0) + fresh_docs(
            "stale", 5, 1.0, first_term=10
        )
        with pytest.raises(ClusteringError):
            clusterer.process_batch(batch, at_time=20.0)
        # same documents re-sent later with one more fresh doc succeed
        reinforced = batch + fresh_docs("extra", 1, 21.0, first_term=20)
        result = clusterer.process_batch(reinforced, at_time=21.0)
        assert result.n_documents + len(result.outliers) == 4  # stale gone
        assert clusterer.statistics.size == 4
        clusterer.statistics.validate()

    def test_zero_vector_cold_start_rolls_back(self, model):
        """All-empty vectors make seeding fail after the statistics ran."""
        clusterer = IncrementalClusterer(model, k=2, seed=0)
        empty = [make_document(f"e{i}", 1.0, {}) for i in range(3)]
        with pytest.raises(ClusteringError):
            clusterer.process_batch(empty, at_time=1.0)
        assert clusterer.statistics.size == 0
        assert clusterer.statistics.now is None
        clusterer.statistics.validate()
        # real documents still go through afterwards
        result = clusterer.process_batch(
            fresh_docs("d", 3, 1.5), at_time=1.5
        )
        assert clusterer.statistics.size == 3
        assert result.n_documents >= 2

    def test_warm_state_survives_failed_batch(self, model):
        """A failure mid-stream must not disturb the previous clustering."""
        repo = build_topic_repository(days=3, docs_per_topic_per_day=2,
                                      seed=6)
        clusterer = IncrementalClusterer(model, k=4, seed=0)
        clusterer.process_batch(repo.documents(), at_time=3.0)
        size_before = clusterer.statistics.size
        assignments_before = clusterer.assignments()
        result_before = clusterer.last_result
        bad = [make_document("future", 99.0, {0: 1})]
        with pytest.raises(ConfigurationError):
            clusterer.process_batch(bad, at_time=4.0)
        assert clusterer.statistics.size == size_before
        assert clusterer.assignments() == assignments_before
        assert clusterer.last_result is result_before
        clusterer.statistics.validate()
        # and the stream continues as if the bad batch never happened
        result = clusterer.process_batch(
            fresh_docs("next", 2, 4.0), at_time=4.0
        )
        assert clusterer.statistics.size == size_before + 2
        assert result is clusterer.last_result


class TestNonFiniteBatchTime:
    def test_nan_batch_time_is_rolled_back(self, model):
        clusterer = IncrementalClusterer(model, k=2, seed=0)
        clusterer.process_batch(fresh_docs("a", 4, 0.0), at_time=0.0)
        before = clusterer.last_result.clustering_index
        with pytest.raises(ConfigurationError, match="finite"):
            clusterer.process_batch(fresh_docs("b", 4, 0.5),
                                    at_time=math.nan)
        assert clusterer.statistics.now == 0.0
        assert math.isfinite(clusterer.statistics.tdw)
        result = clusterer.process_batch(fresh_docs("b", 4, 1.0),
                                         at_time=1.0)
        assert math.isfinite(clusterer.statistics.tdw)
        assert result.clustering_index > 0.0
        assert before > 0.0

    def test_nonincremental_rejects_nan_batch_time(self, model):
        clusterer = NonIncrementalClusterer(model, k=2, seed=0)
        clusterer.process_batch(fresh_docs("a", 4, 0.0), at_time=0.0)
        with pytest.raises(ConfigurationError, match="finite"):
            clusterer.process_batch(fresh_docs("b", 4, 0.5),
                                    at_time=math.nan)
        assert clusterer.statistics.now == 0.0
        assert len(clusterer.archive) == 4


class TestNonIncrementalRollback:
    def test_statistics_restored_on_failure(self, model):
        repo = build_topic_repository(days=2, docs_per_topic_per_day=2,
                                      seed=7)
        clusterer = NonIncrementalClusterer(model, k=4, seed=0)
        clusterer.process_batch(repo.documents(), at_time=2.0)
        stats_before = clusterer.statistics
        archive_before = len(clusterer.archive)
        # jump far enough that the whole archive (incl. batch) expires
        doomed = fresh_docs("doom", 2, 100.0)
        with pytest.raises(ClusteringError):
            clusterer.process_batch(doomed, at_time=100.0)
        # archive AND statistics both point at the pre-batch state
        assert clusterer.statistics is stats_before
        assert len(clusterer.archive) == archive_before
        assert all(d.doc_id.startswith("d") for d in clusterer.archive)
        clusterer.statistics.validate()

    def test_first_batch_failure_leaves_virgin_state(self, model):
        clusterer = NonIncrementalClusterer(model, k=8, seed=0)
        with pytest.raises(ClusteringError):
            clusterer.process_batch(fresh_docs("d", 3, 0.0), at_time=0.0)
        assert clusterer.statistics is None
        assert clusterer.archive == []
        assert clusterer.last_result is None

    def test_failed_batch_is_resendable(self, model):
        repo = build_topic_repository(days=2, docs_per_topic_per_day=2,
                                      seed=8)
        clusterer = NonIncrementalClusterer(model, k=4, seed=0)
        clusterer.process_batch(repo.documents(), at_time=2.0)
        # at t=100 everything (archive and batch) has expired
        doomed = fresh_docs("doom", 3, 3.0)
        with pytest.raises(ClusteringError):
            clusterer.process_batch(doomed, at_time=100.0)
        # the identical documents succeed at a sane time
        result = clusterer.process_batch(doomed, at_time=3.0)
        assert result is clusterer.last_result
        assert {d.doc_id for d in clusterer.statistics.documents()} \
            >= {d.doc_id for d in doomed}


class TestEngineParityThroughPipeline:
    """Seeded matrix-vs-dense-oracle parity, warm starts included."""

    @pytest.mark.parametrize("criterion", ["g", "avg"])
    def test_engines_agree_across_batches(self, model, criterion):
        repo = build_topic_repository(days=4, docs_per_topic_per_day=2,
                                      seed=9)
        batches = [
            [d for d in repo if int(d.timestamp) == day]
            for day in range(4)
        ]
        runs, results = {}, {}
        for engine in (MatrixEngine, DenseEngine):
            clusterer = IncrementalClusterer(
                model, k=3, seed=13, engine=engine
            )
            clusterer.kmeans.criterion = criterion
            results[engine.name] = [
                clusterer.process_batch(batch, at_time=float(day + 1))
                for day, batch in enumerate(batches)
            ]
            runs[engine.name] = clusterer
        for day in range(4):
            matrix = results["matrix"][day]
            dense = results["dense"][day]
            assert matrix.assignments() == dense.assignments(), (
                f"engines diverge at batch {day} "
                f"(criterion={criterion!r})"
            )
            assert set(matrix.outliers) == set(dense.outliers)
        assert runs["matrix"].assignments() == runs["dense"].assignments()
