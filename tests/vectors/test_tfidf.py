"""Unit tests for the novelty tf·idf weighter (Eq. 12-16 plumbing)."""

import math

import pytest

from repro import CorpusStatistics, ForgettingModel, NoveltyTfidfWeighter
from tests.conftest import make_document
from tests.oracles.vectors import as_dicts, weighted_vector


def weighted_rows(statistics, documents):
    """``{doc_id: w⃗}`` read off the weighter's CSR batch."""
    return as_dicts(
        NoveltyTfidfWeighter(statistics).weighted_arrays(documents)
    )


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
        for term_id in (0, 1, 2, 3):
            pr = stats.pr_term(term_id)
            assert math.isclose(stats.idf(term_id), 1.0 / math.sqrt(pr))

    def test_unseen_term_idf_zero(self, stats):
        assert stats.idf(999) == 0.0


class TestVectors:
    def test_tfidf_components(self, stats):
        """Eq. 12-14: ``d⃗``'s components are ``tf_ik · idf_k``, read
        off ``w⃗ = (Pr(d)/len)·d⃗`` by undoing the document scale."""
        doc = stats.document("a")
        scale = stats.pr_document("a") / doc.length
        vector = weighted_rows(stats, [doc])["a"]
        assert math.isclose(vector[0] / scale, 2 * stats.idf(0))
        assert math.isclose(vector[1] / scale, 1 * stats.idf(1))

    def test_weighted_vector_scaling(self, stats):
        """Every component of ``w⃗`` carries the one document scale
        ``Pr(d)/len`` (Eq. 16's factorisation)."""
        rows = weighted_rows(stats, stats.documents())
        for doc in stats.documents():
            scale = stats.pr_document(doc.doc_id) / doc.length
            weighted = rows[doc.doc_id]
            assert set(weighted.keys()) == set(doc.term_counts)
            for term_id, count in doc.term_counts.items():
                assert math.isclose(
                    weighted[term_id], count * stats.idf(term_id) * scale
                )

    def test_empty_document_gives_zero_vector(self, stats):
        empty = make_document("empty", 2.0, {})
        stats.observe([empty], at_time=2.0)
        assert len(weighted_rows(stats, [empty])["empty"]) == 0

    def test_weighted_vectors_batch(self, stats):
        """The batch's rows are the paper-literal ``w⃗`` of each
        document, built one term at a time."""
        docs = stats.documents()
        batch = weighted_rows(stats, docs)
        assert list(batch) == [d.doc_id for d in docs]
        for doc in docs:
            assert batch[doc.doc_id] == weighted_vector(stats, doc)


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
        rows = weighted_rows(stats, [old, new])
        old_vec = rows["old"]
        new_vec = rows["new"]
        assert old_vec.norm() < new_vec.norm()
        # exactly one half-life apart: factor 2 in Pr(d), hence in norm
        assert math.isclose(new_vec.norm() / old_vec.norm(), 2.0,
                            rel_tol=1e-9)
