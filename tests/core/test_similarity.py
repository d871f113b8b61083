"""Tests for the novelty similarity: Eq. 16 must equal Eq. 11."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CorpusStatistics, ForgettingModel, NoveltySimilarity
from tests.conftest import make_document
from tests.oracles.vectors import weighted_vector

term_counts = st.dictionaries(
    st.integers(min_value=0, max_value=25),
    st.integers(min_value=1, max_value=9),
    min_size=1,
    max_size=10,
)


def build_statistics(counts_list, times):
    model = ForgettingModel(half_life=5.0)
    stats = CorpusStatistics(model)
    clock = 0.0
    for i, (counts, t) in enumerate(zip(counts_list, times)):
        clock = max(clock, t)
        stats.observe(
            [make_document(f"d{i}", t, counts)], at_time=clock
        )
    return stats


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(term_counts, min_size=2, max_size=8),
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=2, max_size=8,
        ),
    )
    def test_eq16_equals_eq11_on_random_corpora(self, counts_list, times):
        """The factorised similarity (weighted-vector dot product) must
        match the direct probabilistic formula on every pair."""
        n = min(len(counts_list), len(times))
        stats = build_statistics(counts_list[:n], sorted(times[:n]))
        similarity = NoveltySimilarity(stats)
        docs = stats.documents()
        for first in docs:
            for second in docs:
                factored = similarity.similarity(first, second)
                direct = similarity.similarity_probabilistic(first, second)
                assert math.isclose(
                    factored, direct, rel_tol=1e-9, abs_tol=1e-15
                )

    def test_dot_is_the_paper_literal_one_bit_for_bit(self):
        """``w⃗`` comes from the weighter's CSR rows; the dot product of
        the paper-literal dict vectors gives the same float."""
        stats = build_statistics(
            [{0: 2, 1: 1, 4: 3}, {1: 3, 2: 2, 4: 1}, {0: 1, 2: 1}],
            [0.0, 1.0, 2.0],
        )
        similarity = NoveltySimilarity(stats)
        docs = stats.documents()
        for a in docs:
            for b in docs:
                expected = weighted_vector(stats, a).dot(
                    weighted_vector(stats, b)
                )
                assert similarity.similarity(a, b) == expected

    def test_symmetry(self):
        stats = build_statistics(
            [{0: 2, 1: 1}, {1: 3, 2: 2}, {0: 1, 2: 1}], [0.0, 1.0, 2.0]
        )
        similarity = NoveltySimilarity(stats)
        docs = stats.documents()
        for a in docs:
            for b in docs:
                assert math.isclose(
                    similarity.similarity(a, b),
                    similarity.similarity(b, a),
                    rel_tol=1e-12,
                )


class TestNoveltyBias:
    def test_identical_content_newer_pair_more_similar(self):
        """Core paper claim (§3): as a document ages, its similarity to
        everything shrinks because Pr(d) shrinks."""
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics(model)
        a_old = make_document("a_old", 0.0, {0: 1, 1: 2})
        b_old = make_document("b_old", 0.0, {0: 2, 1: 1})
        a_new = make_document("a_new", 14.0, {0: 1, 1: 2})
        b_new = make_document("b_new", 14.0, {0: 2, 1: 1})
        stats.observe([a_old, b_old], at_time=0.0)
        stats.observe([a_new, b_new], at_time=14.0)
        similarity = NoveltySimilarity(stats)
        old_pair = similarity.similarity(a_old, b_old)
        new_pair = similarity.similarity(a_new, b_new)
        assert new_pair > old_pair
        # two half-lives on each factor: ratio 2^2 · 2^2 = 16
        assert math.isclose(new_pair / old_pair, 16.0, rel_tol=1e-9)

    def test_disjoint_documents_zero_similarity(self):
        stats = build_statistics([{0: 1}, {1: 1}], [0.0, 0.0])
        similarity = NoveltySimilarity(stats)
        docs = stats.documents()
        assert similarity.similarity(docs[0], docs[1]) == 0.0

    def test_empty_document_zero_similarity(self):
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics(model)
        full = make_document("full", 0.0, {0: 1})
        empty = make_document("empty", 0.0, {})
        stats.observe([full, empty], at_time=0.0)
        similarity = NoveltySimilarity(stats)
        assert similarity.similarity(full, empty) == 0.0
        assert similarity.similarity_probabilistic(full, empty) == 0.0
        assert similarity.self_similarity(empty) == 0.0

    def test_self_similarity_positive(self):
        stats = build_statistics([{0: 2, 1: 1}], [0.0])
        similarity = NoveltySimilarity(stats)
        assert similarity.self_similarity(stats.documents()[0]) > 0.0


class TestBatchHelpers:
    def test_vector_cache_and_invalidate(self):
        stats = build_statistics([{0: 1}, {0: 2}], [0.0, 0.0])
        similarity = NoveltySimilarity(stats)
        doc = stats.documents()[0]
        before = similarity.self_similarity(doc)
        stats.observe([make_document("d2", 3.0, {0: 5})], at_time=3.0)
        assert similarity.self_similarity(doc) == before  # cached
        similarity.invalidate()
        assert similarity.self_similarity(doc) != before
