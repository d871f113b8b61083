"""Unit and property tests for the oracles' SparseVector."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from tests.oracles.sparse import SparseVector

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
sparse_dicts = st.dictionaries(
    st.integers(min_value=0, max_value=200), finite_floats, max_size=30
)


def vectors():
    return sparse_dicts.map(SparseVector)


class TestConstruction:
    def test_zero_entries_pruned(self):
        v = SparseVector({0: 1.0, 1: 0.0, 2: -2.0})
        assert len(v) == 2
        assert 1 not in v

    def test_copy_constructor(self):
        v = SparseVector({0: 1.0})
        w = SparseVector(v)
        assert v == w
        assert v is not w

    def test_keys_coerced_to_int(self):
        v = SparseVector({np.int64(3): 1.5})
        assert v[3] == 1.5
        assert all(isinstance(k, int) for k in v.keys())


class TestAccess:
    def test_getitem_missing_is_zero(self):
        assert SparseVector({0: 1.0})[99] == 0.0

    def test_get_default(self):
        assert SparseVector().get(5, default=-1.0) == -1.0

    def test_contains(self):
        v = SparseVector({3: 2.0})
        assert 3 in v
        assert 4 not in v

    def test_to_dict_is_copy(self):
        v = SparseVector({0: 1.0})
        d = v.to_dict()
        d[0] = 99.0
        assert v[0] == 1.0



class TestAlgebra:
    def test_dot_disjoint_is_zero(self):
        assert SparseVector({0: 1.0}).dot(SparseVector({1: 1.0})) == 0.0

    def test_dot_overlap(self):
        v = SparseVector({0: 1.0, 3: 2.0})
        w = SparseVector({3: 4.0, 7: 1.0})
        assert v.dot(w) == 8.0

    def test_dot_with_zero_vector(self):
        assert SparseVector({0: 1.0}).dot(SparseVector()) == 0.0

    def test_norm(self):
        assert SparseVector({0: 3.0, 1: 4.0}).norm() == 5.0

    def test_sum(self):
        assert SparseVector({0: 1.5, 1: -0.5}).sum() == 1.0

    def test_add(self):
        v = SparseVector({0: 1.0}) + SparseVector({0: 2.0, 1: 3.0})
        assert v.to_dict() == {0: 3.0, 1: 3.0}

    def test_sub_cancels_to_empty(self):
        v = SparseVector({0: 1.0})
        assert len(v - v) == 0

    def test_scalar_multiply(self):
        v = 2.0 * SparseVector({0: 1.0, 1: -1.0})
        assert v.to_dict() == {0: 2.0, 1: -2.0}

    def test_scale_by_zero_gives_empty(self):
        assert len(SparseVector({0: 5.0}).scaled(0.0)) == 0

    def test_normalized_unit_norm(self):
        v = SparseVector({0: 3.0, 1: 4.0}).normalized()
        assert math.isclose(v.norm(), 1.0)

    def test_normalized_zero_stays_zero(self):
        assert len(SparseVector().normalized()) == 0


class TestInPlace:
    def test_add_scaled(self):
        v = SparseVector({0: 1.0})
        v.add_scaled(SparseVector({0: 1.0, 1: 2.0}), 2.0)
        assert v.to_dict() == {0: 3.0, 1: 4.0}

    def test_add_scaled_prunes_exact_zero(self):
        v = SparseVector({0: 1.0})
        v.add_scaled(SparseVector({0: 1.0}), -1.0)
        assert 0 not in v

    def test_add_scaled_factor_zero_noop(self):
        v = SparseVector({0: 1.0})
        v.add_scaled(SparseVector({1: 5.0}), 0.0)
        assert v.to_dict() == {0: 1.0}


class TestSparseVectorProperties:
    @given(vectors(), vectors())
    def test_dot_commutative(self, v, w):
        assert math.isclose(v.dot(w), w.dot(v), rel_tol=1e-12, abs_tol=1e-9)

    @given(vectors())
    def test_norm_squared_is_self_dot(self, v):
        assert math.isclose(v.norm() ** 2, v.dot(v),
                            rel_tol=1e-9, abs_tol=1e-9)

    @given(vectors(), vectors())
    def test_addition_matches_itemwise(self, v, w):
        total = v + w
        for key in set(list(v.keys()) + list(w.keys())):
            assert math.isclose(total[key], v[key] + w[key],
                                rel_tol=1e-12, abs_tol=1e-12)

    @given(vectors(), finite_floats)
    def test_scaling_matches_itemwise(self, v, factor):
        scaled = v.scaled(factor)
        for key in v.keys():
            assert math.isclose(scaled[key], v[key] * factor,
                                rel_tol=1e-12, abs_tol=1e-12)

    @given(vectors(), vectors())
    def test_add_then_subtract_roundtrip(self, v, w):
        assert ((v + w) - w).allclose(v, rel_tol=1e-6, abs_tol=1e-6)

    @given(vectors(), vectors(), vectors())
    def test_dot_distributes_over_addition(self, u, v, w):
        left = u.dot(v + w)
        right = u.dot(v) + u.dot(w)
        assert math.isclose(left, right, rel_tol=1e-6, abs_tol=1e-3)
