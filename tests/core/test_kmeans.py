"""Tests for the extended K-means (Section 4.3)."""

import math

import pytest

from repro import (
    CorpusStatistics,
    ForgettingModel,
    NoveltyKMeans,
)
from repro.core.engines import MatrixEngine
from repro.exceptions import ClusteringError, ConfigurationError
from tests.conftest import build_topic_repository, make_document
from tests.oracles import DenseEngine


@pytest.fixture(scope="module")
def fitted():
    """One shared clustering of the 4-topic stream (default engine)."""
    repo = build_topic_repository(days=6, docs_per_topic_per_day=3)
    model = ForgettingModel(half_life=7.0, life_span=30.0)
    stats = CorpusStatistics.from_scratch(
        model, repo.documents(), at_time=6.0
    )
    km = NoveltyKMeans(k=4, seed=2)
    result = km.fit(stats.documents(), stats)
    return repo, stats, result


class TestConfiguration:
    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            NoveltyKMeans(k=0)

    def test_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            NoveltyKMeans(k=2, delta=0.0)
        with pytest.raises(ConfigurationError):
            NoveltyKMeans(k=2, delta=1.0)

    def test_invalid_engine(self):
        with pytest.raises(ConfigurationError):
            NoveltyKMeans(k=2, engine="gpu")

    def test_invalid_criterion(self):
        with pytest.raises(ConfigurationError):
            NoveltyKMeans(k=2, criterion="euclid")

    def test_empty_documents_rejected(self):
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics(model)
        with pytest.raises(ClusteringError):
            NoveltyKMeans(k=2).fit([], stats)

    def test_fewer_docs_than_k_rejected(self):
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics(model)
        docs = [make_document("a", 0.0, {0: 1})]
        stats.observe(docs, at_time=0.0)
        with pytest.raises(ClusteringError):
            NoveltyKMeans(k=5).fit(docs, stats)


class TestResultShape:
    def test_every_document_clustered_or_outlier(self, fitted):
        repo, _, result = fitted
        clustered = {d for members in result.clusters for d in members}
        outliers = set(result.outliers)
        assert clustered | outliers == set(repo.doc_ids())
        assert not clustered & outliers

    def test_no_duplicate_assignment(self, fitted):
        _, _, result = fitted
        all_members = [d for members in result.clusters for d in members]
        assert len(all_members) == len(set(all_members))

    def test_k_cluster_slots(self, fitted):
        _, _, result = fitted
        assert result.k == 4

    def test_index_history_recorded(self, fitted):
        _, _, result = fitted
        assert len(result.index_history) == result.iterations
        assert result.clustering_index == result.index_history[-1]

    def test_timings_recorded(self, fitted):
        _, _, result = fitted
        assert result.timings["clustering"] > 0.0

    def test_separable_topics_recovered(self, fitted):
        """Each non-empty cluster should be topic-pure on this stream."""
        repo, _, result = fitted
        truth = {d.doc_id: d.topic_id for d in repo}
        for members in result.clusters:
            if len(members) < 2:
                continue
            topics = {truth[m] for m in members}
            assert len(topics) == 1, f"mixed cluster: {topics}"


class TestEngineEquivalence:
    @pytest.mark.parametrize("criterion", ["g", "avg"])
    def test_matrix_and_dense_agree(self, criterion):
        repo = build_topic_repository(days=4, docs_per_topic_per_day=2,
                                      seed=3)
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=4.0
        )
        docs = stats.documents()
        results = {}
        for engine in (MatrixEngine, DenseEngine):
            km = NoveltyKMeans(k=3, seed=11, engine=engine,
                               criterion=criterion)
            results[engine.name] = km.fit(docs, stats)
        matrix, dense = results["matrix"], results["dense"]
        assert matrix.assignments() == dense.assignments()
        assert set(matrix.outliers) == set(dense.outliers)
        assert math.isclose(
            matrix.clustering_index, dense.clustering_index,
            rel_tol=1e-9, abs_tol=1e-15,
        )


class TestConvergence:
    def test_converges_before_cap_on_easy_data(self, fitted):
        _, _, result = fitted
        assert result.converged

    def test_iteration_cap_respected(self):
        repo = build_topic_repository(days=4)
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=4.0
        )
        km = NoveltyKMeans(k=3, seed=1, max_iterations=1)
        result = km.fit(stats.documents(), stats)
        assert result.iterations == 1

    def test_g_non_decreasing_under_g_criterion(self, fitted):
        """Greedy ΔG assignment should not reduce G between iterations
        on this stream (each move has non-negative gain)."""
        _, _, result = fitted
        history = result.index_history
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier * (1.0 - 1e-9)

    def test_deterministic_given_seed(self):
        repo = build_topic_repository(days=4)
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=4.0
        )
        docs = stats.documents()
        first = NoveltyKMeans(k=3, seed=9).fit(docs, stats)
        second = NoveltyKMeans(k=3, seed=9).fit(docs, stats)
        assert first.assignments() == second.assignments()


class TestOutliers:
    def test_disconnected_document_joins_no_topical_cluster(self):
        repo = build_topic_repository(days=3, docs_per_topic_per_day=2,
                                      topics=["sports", "finance"])
        # a document sharing no vocabulary with anything else
        repo.add_text("loner", 2.5, "xylophone zeppelin quasar "
                                    "xylophone zeppelin quasar")
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=3.0
        )
        result = NoveltyKMeans(k=2, seed=2).fit(stats.documents(), stats)
        # its gain against every topical cluster is 0.0, so it stays an
        # outlier, unless an emptied cluster is reseeded with it: then
        # it is alone there
        holding = [members for members in result.clusters
                   if "loner" in members]
        assert "loner" in result.outliers or holding == [("loner",)]

    def test_empty_document_always_outlier(self):
        repo = build_topic_repository(days=3, topics=["sports"])
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=3.0
        )
        empty = make_document("void", 2.0, {})
        stats.observe([empty], at_time=3.0)
        km = NoveltyKMeans(k=2, seed=2)
        result = km.fit(stats.documents(), stats)
        assert "void" in result.outliers


class TestWarmStart:
    def test_initial_assignment_respected_shape(self):
        repo = build_topic_repository(days=4, seed=5)
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=4.0
        )
        docs = stats.documents()
        cold = NoveltyKMeans(k=4, seed=21).fit(docs, stats)
        warm = NoveltyKMeans(k=4, seed=22).fit(
            docs, stats, initial_assignment=cold.assignments()
        )
        # warm start from a converged state should converge immediately
        assert warm.iterations <= cold.iterations

    def test_unknown_docs_in_initial_assignment_ignored(self):
        repo = build_topic_repository(days=3, topics=["sports"])
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=3.0
        )
        docs = stats.documents()
        km = NoveltyKMeans(k=2, seed=1)
        result = km.fit(
            docs, stats,
            initial_assignment={"ghost": 0, docs[0].doc_id: 1},
        )
        assert result.n_documents + len(result.outliers) == len(docs)

    def test_out_of_range_initial_cluster_rejected(self):
        repo = build_topic_repository(days=3, topics=["sports"])
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=3.0
        )
        docs = stats.documents()
        km = NoveltyKMeans(k=2, seed=1)
        with pytest.raises(ConfigurationError):
            km.fit(docs, stats,
                   initial_assignment={docs[0].doc_id: 7})


class TestOutlierRescue:
    def _starved_setup(self):
        """Warm-started clusters holding two topics; a third topic's
        documents arrive and — without rescue — can never win a slot."""
        repo = build_topic_repository(
            days=4, docs_per_topic_per_day=3,
            topics=["sports", "finance"], seed=7,
        )
        # the emerging topic: 9 fresh docs over a disjoint vocabulary
        # (term ids offset far beyond the established repo's ids)
        import random as random_module

        rng = random_module.Random(8)
        docs = repo.documents()
        fresh = []
        for i in range(9):
            counts = {}
            for _ in range(30):
                term_id = 1000 + rng.randint(0, 9)
                counts[term_id] = counts.get(term_id, 0) + 1
            fresh.append(make_document(
                f"sci_{i}", 3.5, counts, topic_id="science"
            ))
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, docs + fresh, at_time=4.0
        )
        # warm start: both slots taken by the established topics
        truth = {d.doc_id: d.topic_id for d in docs}
        warm = {
            d.doc_id: (0 if truth[d.doc_id] == "sports" else 1)
            for d in docs
        }
        return stats, warm, [d.doc_id for d in fresh]

    def test_starvation_without_rescue(self):
        stats, warm, fresh_ids = self._starved_setup()
        km = NoveltyKMeans(k=2, seed=0, rescue_outliers=False)
        result = km.fit(stats.documents(), stats, initial_assignment=warm)
        assert set(fresh_ids) <= set(result.outliers)

    def test_rescue_recovers_emerging_topic(self):
        stats, warm, fresh_ids = self._starved_setup()
        km = NoveltyKMeans(k=2, seed=0, rescue_outliers=True)
        result = km.fit(stats.documents(), stats, initial_assignment=warm)
        assignments = result.assignments()
        rescued = [d for d in fresh_ids if d in assignments]
        assert len(rescued) == len(fresh_ids)
        # they form one coherent cluster
        assert len({assignments[d] for d in rescued}) == 1

    def test_rescue_increases_clustering_index(self):
        stats, warm, _ = self._starved_setup()
        without = NoveltyKMeans(k=2, seed=0, rescue_outliers=False).fit(
            stats.documents(), stats, initial_assignment=warm
        )
        with_rescue = NoveltyKMeans(k=2, seed=0, rescue_outliers=True).fit(
            stats.documents(), stats, initial_assignment=warm
        )
        assert (
            with_rescue.clustering_index
            > without.clustering_index
        )

    def test_rescue_noop_when_no_useful_outliers(self):
        """With ample slots nothing is starved; rescue must not disturb
        a converged clustering."""
        repo = build_topic_repository(days=4, seed=5)
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=4.0
        )
        plain = NoveltyKMeans(k=4, seed=2).fit(stats.documents(), stats)
        rescued = NoveltyKMeans(k=4, seed=2, rescue_outliers=True).fit(
            stats.documents(), stats
        )
        assert rescued.clustering_index >= plain.clustering_index - 1e-12


class TestSplitRepair:
    def _blob_setup(self):
        """A warm start that begins as one merged blob of two topics
        with an empty slot — per-document moves can never split it."""
        repo = build_topic_repository(
            days=4, docs_per_topic_per_day=3,
            topics=["sports", "finance"], seed=12,
        )
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=4.0
        )
        warm = {d.doc_id: 0 for d in repo.documents()}
        truth = {d.doc_id: d.topic_id for d in repo}
        return stats, warm, truth

    def test_blob_persists_without_repair(self):
        stats, warm, truth = self._blob_setup()
        result = NoveltyKMeans(k=2, seed=0, rescue_outliers=False).fit(
            stats.documents(), stats, initial_assignment=warm
        )
        non_empty = result.non_empty_clusters()
        assert len(non_empty) == 1
        assert len({truth[m] for m in non_empty[0][1]}) == 2

    def test_repair_splits_the_blob(self):
        stats, warm, truth = self._blob_setup()
        result = NoveltyKMeans(k=2, seed=0, rescue_outliers=True).fit(
            stats.documents(), stats, initial_assignment=warm
        )
        non_empty = result.non_empty_clusters()
        assert len(non_empty) == 2
        for _, members in non_empty:
            assert len({truth[m] for m in members}) == 1

    def test_repair_raises_g(self):
        stats, warm, _ = self._blob_setup()
        blob = NoveltyKMeans(k=2, seed=0, rescue_outliers=False).fit(
            stats.documents(), stats, initial_assignment=warm
        )
        split = NoveltyKMeans(k=2, seed=0, rescue_outliers=True).fit(
            stats.documents(), stats, initial_assignment=warm
        )
        assert split.clustering_index > blob.clustering_index

    def test_no_empty_slot_no_split(self):
        """Split repair only fires into an empty slot; a full K never
        gets disturbed."""
        stats, warm, _ = self._blob_setup()
        docs = stats.documents()
        # both slots occupied: blob in 0, one doc in 1
        warm = dict(warm)
        warm[docs[0].doc_id] = 1
        km = NoveltyKMeans(k=2, seed=0, rescue_outliers=True,
                           max_iterations=1)
        result = km.fit(docs, stats, initial_assignment=warm)
        assert len(result.non_empty_clusters()) == 2


class TestCriteria:
    def test_avg_criterion_stricter_than_g(self):
        """The literal Δavg_sim criterion must never assign more
        documents than the ΔG criterion on the same input."""
        repo = build_topic_repository(days=6, docs_per_topic_per_day=3,
                                      seed=8)
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=6.0
        )
        docs = stats.documents()
        g_result = NoveltyKMeans(k=4, seed=13, criterion="g").fit(docs, stats)
        avg_result = NoveltyKMeans(k=4, seed=13, criterion="avg").fit(
            docs, stats
        )
        assert len(avg_result.outliers) >= len(g_result.outliers)
