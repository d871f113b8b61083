"""Property-based tests for the extended K-means over random corpora."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CorpusStatistics, ForgettingModel, NoveltyKMeans
from tests.conftest import make_document

# random mini-corpora: 4-14 docs over a 12-term vocabulary, 0-5 days old
corpora = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.dictionaries(
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=1, max_value=5),
            min_size=1,
            max_size=6,
        ),
    ),
    min_size=4,
    max_size=14,
)


def build(stats_docs):
    model = ForgettingModel(half_life=3.0)
    docs = [
        make_document(f"d{i}", t, counts)
        for i, (t, counts) in enumerate(stats_docs)
    ]
    stats = CorpusStatistics.from_scratch(model, docs, at_time=5.0)
    return docs, stats


class TestKMeansInvariants:
    @settings(max_examples=40, deadline=None)
    @given(corpora, st.integers(min_value=1, max_value=4))
    def test_partition_property(self, stats_docs, k):
        """Every document lands in exactly one cluster or the outlier
        list, regardless of input."""
        docs, stats = build(stats_docs)
        result = NoveltyKMeans(k=min(k, len(docs)), seed=0).fit(docs, stats)
        clustered = [d for members in result.clusters for d in members]
        assert len(clustered) == len(set(clustered))
        assert set(clustered) | set(result.outliers) == {
            d.doc_id for d in docs
        }
        assert not set(clustered) & set(result.outliers)

    @settings(max_examples=30, deadline=None)
    @given(corpora, st.integers(min_value=1, max_value=4))
    def test_clustering_index_non_negative(self, stats_docs, k):
        """G is a sum of non-negative similarity averages."""
        docs, stats = build(stats_docs)
        result = NoveltyKMeans(k=min(k, len(docs)), seed=1).fit(docs, stats)
        assert result.clustering_index >= -1e-15
        assert all(g >= -1e-15 for g in result.index_history)

    @settings(max_examples=30, deadline=None)
    @given(corpora, st.integers(min_value=1, max_value=4))
    def test_backends_numerically_agree(self, stats_docs, k):
        """The engine-equivalence contract, stated precisely: for any
        fixed assignment, the matrix engine and the dense oracle report
        the same clustering index and the same *best gain value* for
        every document.

        (Full-run assignment equality is NOT an invariant: exact gain
        ties — symmetric documents, disjoint documents — are broken by
        float summation order, which differs between the engines and
        can cascade to different local optima. The fixed-seed
        equivalence tests in test_kmeans.py cover realistic,
        tie-free inputs end to end.)"""
        from repro.core.engines import MatrixEngine
        from repro.vectors.tfidf import NoveltyTfidfWeighter
        from tests.oracles.dense import DenseEngine

        docs, stats = build(stats_docs)
        k = min(k, len(docs))
        vectors = NoveltyTfidfWeighter(stats).weighted_arrays(docs)
        matrix = MatrixEngine(k, vectors, "g")
        dense = DenseEngine(k, vectors, "g")
        for i in range(len(docs)):
            if i % 2 == 0:  # half assigned round-robin, half loose
                matrix.add(i % k, i)
                dense.add(i % k, i)
        assert math.isclose(
            matrix.clustering_index(), dense.clustering_index(),
            rel_tol=1e-9, abs_tol=1e-15,
        )
        for row in range(len(docs)):
            gain_matrix = matrix.best_gain(row)[1]
            gain_dense = dense.best_gain(row)[1]
            assert math.isclose(gain_matrix, gain_dense,
                                rel_tol=1e-9, abs_tol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(corpora, st.integers(min_value=0, max_value=3))
    def test_deterministic(self, stats_docs, seed):
        docs, stats = build(stats_docs)
        k = min(3, len(docs))
        first = NoveltyKMeans(k=k, seed=seed).fit(docs, stats)
        second = NoveltyKMeans(k=k, seed=seed).fit(docs, stats)
        assert first.assignments() == second.assignments()
        assert first.index_history == second.index_history

    @settings(max_examples=25, deadline=None)
    @given(corpora)
    def test_warm_start_accepts_any_prior_assignment(self, stats_docs):
        """Warm starting from an arbitrary valid assignment never
        crashes and still yields a partition."""
        docs, stats = build(stats_docs)
        k = min(3, len(docs))
        initial = {
            doc.doc_id: i % k for i, doc in enumerate(docs)
        }
        result = NoveltyKMeans(k=k, seed=0).fit(
            docs, stats, initial_assignment=initial
        )
        clustered = {d for members in result.clusters for d in members}
        assert clustered | set(result.outliers) == {
            d.doc_id for d in docs
        }

    @settings(max_examples=20, deadline=None)
    @given(corpora, st.booleans())
    def test_g_history_monotone_under_g_criterion(self, stats_docs,
                                                  rescue):
        """Within one run, every per-document move and every accepted
        rescue swap has non-negative ΔG, so the iteration history is
        non-decreasing (rescue may steer to a *different* optimum than a
        rescue-free run — cross-run comparison is not an invariant)."""
        docs, stats = build(stats_docs)
        k = min(3, len(docs))
        result = NoveltyKMeans(
            k=k, seed=3, rescue_outliers=rescue
        ).fit(docs, stats)
        history = result.index_history
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - max(1e-12, abs(earlier) * 1e-9)
