"""Tests for stream batching/replay helpers."""

import gc
import time
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ForgettingModel, IncrementalClusterer, iter_batches, replay
from tests.conftest import build_topic_repository, make_document


def docs_at(times):
    return [
        make_document(f"d{i}", t, {0: 1}) for i, t in enumerate(times)
    ]


class TestIterBatches:
    def test_slices_are_half_open(self):
        batches = list(iter_batches(docs_at([0.0, 0.9, 1.0, 1.5]), 1.0))
        assert [len(b) for _, b in batches] == [2, 2]
        assert [t for t, _ in batches] == [1.0, 2.0]

    def test_empty_slices_skipped_by_default(self):
        batches = list(iter_batches(docs_at([0.0, 5.5]), 1.0))
        assert len(batches) == 2

    @pytest.mark.parametrize("width, far", [(2.0, 4.0e9), (1.0, 1.0e17)])
    def test_far_future_gap_returns(self, width, far):
        # a gap of billions of windows is jumped in one step, and at
        # 1e17 (where `+ 1.0` is a float no-op) the grid re-anchors
        # instead of looping; feed() shares the rule
        start = time.monotonic()
        batches = list(iter_batches(docs_at([0.0, far]), width))
        assert time.monotonic() - start < 5.0
        assert [len(b) for _, b in batches] == [1, 1]
        assert batches[0][0] == width
        assert batches[1][0] >= far

    def test_unsorted_input_ordered(self):
        batches = list(iter_batches(docs_at([2.5, 0.5]), 1.0))
        assert batches[0][1][0].timestamp == 0.5

    def test_explicit_origin(self):
        batches = list(iter_batches(docs_at([1.5]), 1.0, origin=0.0))
        assert batches[0][0] == 2.0

    def test_origin_after_first_document_rejected(self):
        with pytest.raises(ValueError):
            list(iter_batches(docs_at([0.0]), 1.0, origin=5.0))

    def test_no_documents(self):
        assert list(iter_batches([], 1.0)) == []

    def test_invalid_width(self):
        from repro.exceptions import ConfigurationError
        with pytest.raises(ConfigurationError):
            list(iter_batches(docs_at([0.0]), 0.0))

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0,
                              allow_nan=False), max_size=30),
           st.floats(min_value=0.25, max_value=10.0, allow_nan=False))
    def test_batches_partition_the_stream(self, times, width):
        docs = docs_at(times)
        batches = list(iter_batches(docs, width))
        flattened = [d.doc_id for _, b in batches for d in b]
        assert sorted(flattened) == sorted(d.doc_id for d in docs)
        for at_time, batch in batches:
            for doc in batch:
                assert at_time - width <= doc.timestamp + 1e-9
                assert doc.timestamp < at_time


class TestReplay:
    def test_matches_manual_loop(self):
        repo = build_topic_repository(days=6, seed=4)
        model = ForgettingModel(half_life=7.0, life_span=14.0)

        manual = IncrementalClusterer(model, k=3, seed=1)
        for day in range(6):
            # replay feeds batches in (timestamp, doc_id) order; match it
            batch = sorted(
                (d for d in repo if int(d.timestamp) == day),
                key=lambda d: (d.timestamp, d.doc_id),
            )
            manual.process_batch(batch, at_time=float(day + 1))

        driven = IncrementalClusterer(model, k=3, seed=1)
        results = []
        last = replay(driven, repo.documents(), batch_days=1.0,
                      origin=0.0,
                      on_batch=lambda t, batch, result: results.append(
                          result))
        assert len(results) == 6
        assert last is results[-1]
        assert (
            sorted(map(sorted, results[-1].clusters))
            == sorted(map(sorted, manual.last_result.clusters))
        )

    def test_on_batch_callback(self):
        repo = build_topic_repository(days=3, seed=5)
        model = ForgettingModel(half_life=7.0)
        clusterer = IncrementalClusterer(model, k=2, seed=1)
        seen = []
        replay(clusterer, repo.documents(), batch_days=1.0, origin=0.0,
               on_batch=lambda t, batch, result: seen.append(
                   (t, len(batch), result.n_documents)))
        assert len(seen) == 3
        assert seen[0][0] == 1.0

    def test_only_the_last_result_is_kept(self):
        """``on_batch`` sees every batch's result; replay returns the
        last and holds none of the others."""
        repo = build_topic_repository(days=4, seed=5)
        clusterer = IncrementalClusterer(ForgettingModel(half_life=7.0),
                                         k=2, seed=1)
        seen = []
        last = replay(clusterer, repo.documents(), batch_days=1.0,
                      origin=0.0,
                      on_batch=lambda t, batch, result: seen.append(
                          weakref.ref(result)))
        gc.collect()
        assert len(seen) == 4
        assert seen[-1]() is last
        assert [ref() for ref in seen[:-1]] == [None] * 3

    def test_no_documents_returns_none(self):
        clusterer = IncrementalClusterer(ForgettingModel(half_life=7.0),
                                         k=1, seed=0)
        assert replay(clusterer, [], batch_days=1.0) is None

    def test_quiet_gaps_advance_clock(self):
        docs = [
            make_document("a", 0.5, {0: 2}),
            make_document("b", 9.5, {0: 2}),
        ]
        model = ForgettingModel(half_life=2.0, life_span=4.0)
        clusterer = IncrementalClusterer(model, k=1, seed=0)
        replay(clusterer, docs, batch_days=1.0)
        # doc "a" must have expired during the quiet gap
        assert "a" not in clusterer.statistics
        assert "b" in clusterer.statistics
