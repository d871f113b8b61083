"""Tests for query -> cluster search over a published snapshot."""

import math

import numpy as np
import pytest

from repro import ClusterSnapshot
from repro.api import build_clusterer
from repro.exceptions import ConfigurationError
from tests.conftest import build_topic_repository


@pytest.fixture(scope="module")
def searcher_setup():
    repo = build_topic_repository(days=5, docs_per_topic_per_day=3, seed=2)
    clusterer = build_clusterer(k=4, half_life=7.0, seed=2)
    result = clusterer.process_batch(repo.documents(), at_time=5.0)
    searcher = ClusterSnapshot.from_clusterer(
        1, clusterer, vocabulary=repo.vocabulary, pipeline=repo.pipeline
    )
    truth = {d.doc_id: d.topic_id for d in repo}
    cluster_topic = {
        cluster_id: truth[members[0]]
        for cluster_id, members in result.non_empty_clusters()
    }
    return searcher, cluster_topic


class TestSearch:
    def test_topical_query_finds_right_cluster(self, searcher_setup):
        searcher, cluster_topic = searcher_setup
        for query, topic in [
            ("stock market investors", "finance"),
            ("election campaign votes", "politics"),
            ("team players scoring goals", "sports"),
            ("physics laboratory experiments", "science"),
        ]:
            hits = searcher.search(query)
            assert hits, query
            assert cluster_topic[hits[0].cluster_id] == topic, query

    def test_scores_sorted_and_bounded(self, searcher_setup):
        searcher, _ = searcher_setup
        hits = searcher.search("market election game research", limit=10)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 < score <= 1.0 + 1e-9 for score in scores)

    def test_matched_terms_reported(self, searcher_setup):
        searcher, _ = searcher_setup
        hits = searcher.search("stock market")
        assert hits
        assert set(hits[0].matched_terms) <= {"stock", "market"}
        assert hits[0].matched_terms

    def test_limit_respected(self, searcher_setup):
        searcher, _ = searcher_setup
        hits = searcher.search("market election game research", limit=2)
        assert len(hits) <= 2

    def test_unknown_vocabulary_empty(self, searcher_setup):
        searcher, _ = searcher_setup
        assert searcher.search("xylophone zeppelin") == []

    def test_stopword_only_query_empty(self, searcher_setup):
        searcher, _ = searcher_setup
        assert searcher.search("the of and") == []

    def test_empty_query(self, searcher_setup):
        searcher, _ = searcher_setup
        assert searcher.search("") == []

    def test_invalid_limit(self, searcher_setup):
        searcher, _ = searcher_setup
        with pytest.raises(ConfigurationError):
            searcher.search("market", limit=0)

    def test_query_vector_unit_norm(self, searcher_setup):
        """Each score is the dot product of the unit tf·idf query vector
        (frozen idf, Eq. 14) with the unit representative."""
        searcher, _ = searcher_setup
        query = "stock market rally"
        counts = searcher.pipeline.term_frequencies(query)
        term_ids = {searcher.vocabulary.get(t): c for t, c in counts.items()}
        term_ids.pop(-1, None)
        vector = {t: c * searcher.frozen.idf(t) for t, c in term_ids.items()}
        norm = math.sqrt(sum(v * v for v in vector.values()))
        view = searcher.view
        hits = searcher.search(query, limit=10)
        assert hits
        for hit in hits:
            row = view.representatives[hit.cluster_id]
            dot = sum(
                row[np.searchsorted(view.term_ids, t)] * v
                for t, v in vector.items() if t in view.term_ids
            )
            expected = dot / (norm * np.linalg.norm(row))
            assert hit.score == pytest.approx(expected, rel=1e-12)
