"""Tests for the external clustering measures (purity, NMI and the
recency-weighted micro F1)."""

import pytest

from repro import ForgettingModel
from repro.eval import (
    normalized_mutual_information,
    purity,
    recency_weighted_micro_f1,
)
from tests.conftest import make_document

TRUTH = {
    "a1": "t1", "a2": "t1", "a3": "t1", "a4": "t1",
    "b1": "t2", "b2": "t2",
    "c1": "t3", "c2": "t3", "c3": "t3",
}

PERFECT = [["a1", "a2", "a3", "a4"], ["b1", "b2"], ["c1", "c2", "c3"]]
ONE_BLOB = [list(TRUTH)]
SINGLETONS = [[d] for d in TRUTH]


class TestPurity:
    def test_perfect(self):
        assert purity(PERFECT, TRUTH) == 1.0

    def test_singletons_gam_purity_but_not_inverse(self):
        assert purity(SINGLETONS, TRUTH) == 1.0

    def test_one_blob_gams_inverse_but_not_purity(self):
        assert purity(ONE_BLOB, TRUTH) == pytest.approx(4 / 9)

    def test_unlabelled_and_outliers_ignored(self):
        truth = dict(TRUTH, x1=None)
        clusters = [["a1", "a2", "x1"]]
        assert purity(clusters, truth) == 1.0

    def test_empty(self):
        assert purity([], TRUTH) == 0.0


class TestNMI:
    def test_perfect(self):
        assert normalized_mutual_information(PERFECT, TRUTH) == pytest.approx(1.0)

    def test_trivial_partition_zero(self):
        assert normalized_mutual_information(ONE_BLOB, TRUTH) == 0.0

    def test_bounded(self):
        mixed = [["a1", "b1", "c1"], ["a2", "b2", "c2"], ["a3", "a4", "c3"]]
        value = normalized_mutual_information(mixed, TRUTH)
        assert 0.0 <= value < 0.5

    def test_empty(self):
        assert normalized_mutual_information([], TRUTH) == 0.0


class TestRecencyWeightedF1:
    def _docs(self):
        return [
            make_document("new1", 10.0, {0: 1}, topic_id="t1"),
            make_document("new2", 10.0, {0: 1}, topic_id="t1"),
            make_document("old1", 0.0, {0: 1}, topic_id="t2"),
            make_document("old2", 0.0, {0: 1}, topic_id="t2"),
        ]

    def test_perfect_is_one(self):
        model = ForgettingModel(half_life=5.0)
        value = recency_weighted_micro_f1(
            [["new1", "new2"], ["old1", "old2"]],
            self._docs(), model, at_time=10.0,
        )
        assert value == pytest.approx(1.0)

    def test_missing_old_topic_barely_hurts(self):
        """Leaving the stale topic unclustered costs little weight."""
        model = ForgettingModel(half_life=2.0)
        value = recency_weighted_micro_f1(
            [["new1", "new2"]], self._docs(), model, at_time=10.0,
        )
        # old docs weigh 2^-5 each; c = 2/32, a = 2
        assert value > 0.95

    def test_missing_new_topic_hurts_badly(self):
        model = ForgettingModel(half_life=2.0)
        value = recency_weighted_micro_f1(
            [["old1", "old2"]], self._docs(), model, at_time=10.0,
        )
        assert value < 0.1

    def test_unmarked_clusters_excluded(self):
        model = ForgettingModel(half_life=5.0)
        # 50/50 cluster fails the 0.6 marking threshold
        value = recency_weighted_micro_f1(
            [["new1", "old1"]], self._docs(), model, at_time=10.0,
        )
        assert value == 0.0

    def test_empty_clustering(self):
        model = ForgettingModel(half_life=5.0)
        assert recency_weighted_micro_f1(
            [], self._docs(), model, at_time=10.0
        ) == 0.0
