"""Tests for cluster labeling."""

import pytest

from repro import (
    CorpusStatistics,
    ForgettingModel,
    NoveltyKMeans,
    label_clustering,
)
from repro.core.labeling import (
    corpus_term_counts,
    discriminative_terms,
    representative_terms,
)
from repro.exceptions import ConfigurationError
from tests.conftest import build_topic_repository
from tests.oracles.sparse import SparseVector


@pytest.fixture(scope="module")
def clustered():
    repo = build_topic_repository(days=5, docs_per_topic_per_day=3, seed=2)
    model = ForgettingModel(half_life=7.0)
    stats = CorpusStatistics.from_scratch(
        model, repo.documents(), at_time=5.0
    )
    result, view = NoveltyKMeans(k=4, seed=2).fit_frozen(
        stats.documents(), stats
    )
    return repo, stats, result, view


class TestRepresentativeTerms:
    def test_topic_words_dominate(self, clustered):
        repo, _, result, view = clustered
        truth = {d.doc_id: d.topic_id for d in repo}
        for cluster_id, member_ids in result.non_empty_clusters():
            topic = truth[member_ids[0]]
            ranked = representative_terms(
                view, cluster_id, repo.vocabulary, limit=3
            )
            from tests.conftest import TOPIC_VOCABULARY
            from repro.text import stem
            topic_stems = {stem(w) for w in TOPIC_VOCABULARY[topic].split()}
            for term, score in ranked:
                assert term in topic_stems, (topic, term)
                assert score > 0.0

    def test_scores_descending(self, clustered):
        repo, _, result, view = clustered
        cluster_id = result.non_empty_clusters()[0][0]
        ranked = representative_terms(view, cluster_id, repo.vocabulary,
                                      limit=10)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_ties_break_by_term_id(self):
        from repro import Vocabulary
        from tests.oracles import DenseEngine
        from tests.oracles.vectors import as_arrays

        vocabulary = Vocabulary()
        for word in ("zero", "one", "two", "three"):
            vocabulary.add(word)
        engine = DenseEngine(1, as_arrays({
            "a": SparseVector({3: 1.0, 1: 1.0, 2: 2.0, 0: 1.0}),
        }), "g")
        engine.add(0, 0)  # row of "a"
        ranked = representative_terms(engine.freeze(), 0, vocabulary,
                                      limit=3)
        assert ranked == [("two", 2.0), ("zero", 1.0), ("one", 1.0)]

    def test_limit_validated(self, clustered):
        repo, _, _, view = clustered
        with pytest.raises(ConfigurationError):
            representative_terms(view, 0, repo.vocabulary, limit=0)


class TestDiscriminativeTerms:
    def test_background_words_suppressed(self, clustered):
        repo, _, result, _ = clustered
        by_id = {d.doc_id: d for d in repo}
        counts = corpus_term_counts(repo.documents())
        members = [by_id[m] for m in result.non_empty_clusters()[0][1]]
        ranked = discriminative_terms(members, counts, repo.vocabulary,
                                      limit=5)
        from repro.text import stem
        background_stems = {stem(w) for w in
                            ("report", "town", "national", "morning",
                             "announcement")}
        top = {term for term, _ in ranked}
        assert not top & background_stems

    def test_corpus_counts_sum(self, clustered):
        repo, _, _, _ = clustered
        counts = corpus_term_counts(repo.documents())
        assert sum(counts.values()) == sum(d.length for d in repo)


class TestMedoidDocument:
    def test_medoid_is_most_central(self, clustered):
        from repro.core import medoid_document

        repo, stats, result, _ = clustered
        by_id = {d.doc_id: d for d in repo}
        for _, member_ids in result.non_empty_clusters():
            members = [by_id[m] for m in member_ids]
            medoid = medoid_document(members, stats)
            assert medoid in members
            # brute-force check: medoid maximises the mean similarity
            from repro import NoveltySimilarity
            similarity = NoveltySimilarity(stats)

            def mean_sim(doc):
                return sum(
                    similarity.similarity(doc, other)
                    for other in members if other is not doc
                )

            best = max(members, key=mean_sim)
            assert mean_sim(medoid) == pytest.approx(mean_sim(best))

    def test_medoid_edge_cases(self, clustered):
        from repro.core import medoid_document

        repo, stats, _, _ = clustered
        only = repo.documents()[0]
        assert medoid_document([], stats) is None
        assert medoid_document([only], stats) is only


class TestLabelClustering:
    def test_labels_every_non_empty_cluster(self, clustered):
        repo, _, result, view = clustered
        labels = label_clustering(view, repo.vocabulary)
        assert len(labels) == len(result.non_empty_clusters())
        for label, (cluster_id, members) in zip(
            labels, result.non_empty_clusters()
        ):
            assert label.cluster_id == cluster_id
            assert label.size == len(members)
            assert 0 < len(label.terms) <= 5
            assert str(label) == ", ".join(label.terms)
