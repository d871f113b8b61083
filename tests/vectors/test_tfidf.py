"""Unit tests for the novelty tf·idf weighter (Eq. 12-16 plumbing)."""

import math

import pytest

from repro import CorpusStatistics, ForgettingModel, NoveltyTfidfWeighter
from tests.conftest import make_document


@pytest.fixture
def stats():
    model = ForgettingModel(half_life=7.0)
    docs = [
        make_document("a", 0.0, {0: 2, 1: 1}),
        make_document("b", 1.0, {1: 3, 2: 1}),
        make_document("c", 2.0, {0: 1, 2: 2, 3: 1}),
    ]
    statistics = CorpusStatistics(model)
    statistics.observe(docs[:1], at_time=0.0)
    statistics.observe(docs[1:2], at_time=1.0)
    statistics.observe(docs[2:], at_time=2.0)
    return statistics


class TestIdf:
    def test_idf_is_inverse_sqrt_of_term_probability(self, stats):
        weighter = NoveltyTfidfWeighter(stats)
        for term_id in (0, 1, 2, 3):
            pr = stats.pr_term(term_id)
            assert math.isclose(weighter.idf(term_id), 1.0 / math.sqrt(pr))

    def test_unseen_term_idf_zero(self, stats):
        assert NoveltyTfidfWeighter(stats).idf(999) == 0.0

    def test_idf_cached_until_invalidate(self, stats):
        weighter = NoveltyTfidfWeighter(stats)
        before = weighter.idf(0)
        stats.observe(
            [make_document("d", 3.0, {0: 5})], at_time=3.0
        )
        assert weighter.idf(0) == before  # stale cache by design
        weighter.invalidate()
        assert weighter.idf(0) != before


class TestVectors:
    def test_tfidf_components(self, stats):
        """Eq. 12-14: ``d⃗``'s components are ``tf_ik · idf_k``, read
        off ``w⃗ = (Pr(d)/len)·d⃗`` by undoing the document scale."""
        weighter = NoveltyTfidfWeighter(stats)
        doc = stats.document("a")
        scale = stats.pr_document("a") / doc.length
        vector = weighter.weighted_vector(doc)
        assert math.isclose(vector[0] / scale, 2 * weighter.idf(0))
        assert math.isclose(vector[1] / scale, 1 * weighter.idf(1))

    def test_weighted_vector_scaling(self, stats):
        """Every component of ``w⃗`` carries the one document scale
        ``Pr(d)/len`` (Eq. 16's factorisation)."""
        weighter = NoveltyTfidfWeighter(stats)
        for doc in stats.documents():
            scale = stats.pr_document(doc.doc_id) / doc.length
            weighted = weighter.weighted_vector(doc)
            assert set(weighted.keys()) == set(doc.term_counts)
            for term_id, count in doc.term_counts.items():
                assert math.isclose(
                    weighted[term_id], count * weighter.idf(term_id) * scale
                )

    def test_empty_document_gives_zero_vector(self, stats):
        empty = make_document("empty", 2.0, {})
        stats.observe([empty], at_time=2.0)
        weighter = NoveltyTfidfWeighter(stats)
        assert len(weighter.weighted_vector(empty)) == 0

    def test_weighted_vectors_batch(self, stats):
        weighter = NoveltyTfidfWeighter(stats)
        docs = stats.documents()
        batch = weighter.weighted_vectors(docs)
        assert set(batch) == {d.doc_id for d in docs}
        for doc in docs:
            assert batch[doc.doc_id].allclose(weighter.weighted_vector(doc))


class TestNoveltyEffect:
    def test_older_docs_get_smaller_weighted_vectors(self):
        """Two identical documents acquired at different times: the newer
        one must carry the larger weighted vector (the novelty bias)."""
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics(model)
        old = make_document("old", 0.0, {0: 1, 1: 1})
        new = make_document("new", 7.0, {0: 1, 1: 1})
        stats.observe([old], at_time=0.0)
        stats.observe([new], at_time=7.0)
        weighter = NoveltyTfidfWeighter(stats)
        old_vec = weighter.weighted_vector(old)
        new_vec = weighter.weighted_vector(new)
        assert old_vec.norm() < new_vec.norm()
        # exactly one half-life apart: factor 2 in Pr(d), hence in norm
        assert math.isclose(new_vec.norm() / old_vec.norm(), 2.0,
                            rel_tol=1e-9)
