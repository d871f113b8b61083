"""Tests for Cluster: Eq. 19-26 against brute-force pairwise sums."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import UnknownDocumentError
from tests.oracles import Cluster
from tests.oracles.sparse import SparseVector

vector_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    max_size=8,
).map(SparseVector)


def brute_force_avg_sim(vectors):
    """Eq. 18 computed literally: mean over ordered distinct pairs."""
    n = len(vectors)
    if n < 2:
        return 0.0
    total = 0.0
    for v, w in itertools.permutations(vectors, 2):
        total += v.dot(w)
    return total / (n * (n - 1))


def filled_cluster(vectors):
    cluster = Cluster(0)
    for i, vector in enumerate(vectors):
        cluster.add(f"d{i}", vector)
    return cluster


class TestAccounting:
    def test_empty_cluster(self):
        cluster = Cluster(0)
        assert cluster.size == 0
        assert cluster.is_empty
        assert cluster.avg_sim() == 0.0
        assert cluster.index_contribution() == 0.0

    def test_singleton_avg_sim_zero(self):
        cluster = filled_cluster([SparseVector({0: 1.0})])
        assert cluster.avg_sim() == 0.0

    def test_pair_avg_sim_is_their_similarity(self):
        v = SparseVector({0: 1.0, 1: 2.0})
        w = SparseVector({0: 3.0})
        cluster = filled_cluster([v, w])
        assert math.isclose(cluster.avg_sim(), v.dot(w))

    def test_representative_is_member_sum(self):
        v = SparseVector({0: 1.0})
        w = SparseVector({0: 2.0, 1: 1.0})
        cluster = filled_cluster([v, w])
        assert cluster.representative.allclose(v + w)

    def test_ss_is_sum_of_self_similarities(self):
        vectors = [SparseVector({0: 2.0}), SparseVector({1: 3.0})]
        cluster = filled_cluster(vectors)
        expected = sum(v.dot(v) for v in vectors)
        assert math.isclose(cluster.ss, expected)

    def test_eq22_identity(self):
        """cr_sim(C,C) = |C|(|C|-1)·avg_sim(C) + ss(C)."""
        vectors = [
            SparseVector({0: 1.0, 1: 0.5}),
            SparseVector({1: 2.0}),
            SparseVector({0: 0.5, 2: 1.0}),
        ]
        cluster = filled_cluster(vectors)
        n = cluster.size
        lhs = cluster.self_similarity
        rhs = n * (n - 1) * cluster.avg_sim() + cluster.ss
        assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_duplicate_member_rejected(self):
        cluster = filled_cluster([SparseVector({0: 1.0})])
        with pytest.raises(ValueError):
            cluster.add("d0", SparseVector({1: 1.0}))

    def test_remove_unknown_rejected(self):
        with pytest.raises(UnknownDocumentError):
            Cluster(0).remove("ghost")

    def test_member_roundtrip(self):
        v = SparseVector({0: 1.5})
        cluster = Cluster(0)
        cluster.add("a", v)
        assert cluster.member_vector("a") == v
        assert cluster.member_ids() == ["a"]
        assert "a" in cluster
        returned = cluster.remove("a")
        assert returned == v
        assert cluster.is_empty

    def test_emptied_cluster_resets_exactly(self):
        cluster = Cluster(0)
        cluster.add("a", SparseVector({0: 1e-8}))
        cluster.remove("a")
        assert cluster.self_similarity == 0.0
        assert cluster.ss == 0.0
        assert len(cluster.representative) == 0

    def test_clear(self):
        cluster = filled_cluster([SparseVector({0: 1.0})] )
        cluster.clear()
        assert cluster.is_empty
        assert cluster.avg_sim() == 0.0


class TestBruteForceAgreement:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(vector_strategy, min_size=0, max_size=8))
    def test_avg_sim_matches_brute_force(self, vectors):
        cluster = filled_cluster(vectors)
        expected = brute_force_avg_sim(vectors)
        assert math.isclose(cluster.avg_sim(), expected,
                            rel_tol=1e-9, abs_tol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(vector_strategy, min_size=1, max_size=7),
           vector_strategy)
    def test_eq26_what_if_added(self, vectors, candidate):
        """avg_sim_if_added must equal actually adding the document."""
        cluster = filled_cluster(vectors)
        predicted = cluster.avg_sim_if_added(candidate)
        expected = brute_force_avg_sim(vectors + [candidate])
        assert math.isclose(predicted, expected,
                            rel_tol=1e-9, abs_tol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(vector_strategy, min_size=3, max_size=7),
           st.integers(min_value=0, max_value=6))
    def test_what_if_removed(self, vectors, index):
        index = index % len(vectors)
        cluster = filled_cluster(vectors)
        predicted = cluster.avg_sim_if_removed(f"d{index}")
        remaining = [v for i, v in enumerate(vectors) if i != index]
        expected = brute_force_avg_sim(remaining)
        assert math.isclose(predicted, expected,
                            rel_tol=1e-9, abs_tol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(vector_strategy, min_size=1, max_size=7),
           vector_strategy)
    def test_g_gain_matches_contribution_delta(self, vectors, candidate):
        """g_gain_if_added must equal Δ(|C|·avg_sim) measured directly."""
        cluster = filled_cluster(vectors)
        before = cluster.index_contribution()
        predicted_gain = cluster.g_gain_if_added(candidate)
        cluster.add("candidate", candidate)
        after = cluster.index_contribution()
        assert math.isclose(predicted_gain, after - before,
                            rel_tol=1e-9, abs_tol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(vector_strategy, min_size=2, max_size=8),
           st.integers(min_value=0, max_value=7))
    def test_add_remove_roundtrip_preserves_accounting(self, vectors, index):
        """Removing what was added restores cr_sim and ss exactly
        (within float tolerance) — the §4.4 deletion formulas."""
        index = index % len(vectors)
        cluster = filled_cluster(vectors)
        crpp_before = cluster.self_similarity
        ss_before = cluster.ss
        extra = SparseVector({0: 1.25, 31: 2.0})
        cluster.add("extra", extra)
        cluster.remove("extra")
        assert math.isclose(cluster.self_similarity, crpp_before,
                            rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(cluster.ss, ss_before,
                            rel_tol=1e-9, abs_tol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(vector_strategy, min_size=1, max_size=8))
    def test_refresh_is_noop_on_clean_state(self, vectors):
        cluster = filled_cluster(vectors)
        crpp = cluster.self_similarity
        ss = cluster.ss
        cluster.refresh()
        assert math.isclose(cluster.self_similarity, crpp,
                            rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(cluster.ss, ss, rel_tol=1e-9, abs_tol=1e-12)


class TestRebuild:
    def test_rebuild_from_members_reweights(self):
        cluster = filled_cluster(
            [SparseVector({0: 1.0}), SparseVector({1: 1.0})]
        )
        fresh = {
            "d0": SparseVector({0: 2.0}),
            "d1": SparseVector({1: 2.0}),
        }
        cluster.rebuild_from_members(fresh)
        assert cluster.representative.allclose(
            SparseVector({0: 2.0, 1: 2.0})
        )

    def test_rebuild_drops_expired_members(self):
        cluster = filled_cluster(
            [SparseVector({0: 1.0}), SparseVector({1: 1.0})]
        )
        cluster.rebuild_from_members({"d1": SparseVector({1: 2.0})})
        assert cluster.member_ids() == ["d1"]
        assert cluster.size == 1
