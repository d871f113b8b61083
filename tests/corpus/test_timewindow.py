"""Unit tests for time windows and the window splitter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import TimeWindow, split_into_windows
from repro.exceptions import ConfigurationError
from tests.conftest import make_document


def docs_at(times, topic=None):
    return [
        make_document(f"d{i}", t, {0: 1}, topic_id=topic)
        for i, t in enumerate(times)
    ]


class TestTimeWindow:
    def test_span(self):
        window = TimeWindow(0, 0.0, 30.0, ())
        assert window.span_days == 30.0

    def test_rejects_documents_outside_bounds(self):
        with pytest.raises(ConfigurationError):
            TimeWindow(0, 0.0, 10.0, tuple(docs_at([10.0])))

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            TimeWindow(0, 10.0, 5.0, ())

    def test_topic_ids_first_seen_order(self):
        docs = [
            make_document("a", 0.0, {0: 1}, topic_id="t2"),
            make_document("b", 1.0, {0: 1}, topic_id="t1"),
            make_document("c", 2.0, {0: 1}, topic_id="t2"),
        ]
        window = TimeWindow(0, 0.0, 10.0, tuple(docs))
        assert window.topic_ids() == ["t2", "t1"]

    def test_unlabelled_documents_ignored_in_topics(self):
        docs = [
            make_document("a", 0.0, {0: 1}, topic_id=None),
            make_document("b", 1.0, {0: 1}, topic_id="t1"),
        ]
        window = TimeWindow(0, 0.0, 10.0, tuple(docs))
        assert window.topic_ids() == ["t1"]
        assert window.topic_sizes() == {"t1": 1}

    def test_statistics_table2_fields(self):
        docs = (
            docs_at([0.0], topic="a")
            + [make_document("x1", 1.0, {0: 1}, topic_id="b"),
               make_document("x2", 2.0, {0: 1}, topic_id="b"),
               make_document("x3", 3.0, {0: 1}, topic_id="b")]
        )
        window = TimeWindow(0, 0.0, 10.0, tuple(docs))
        stats = window.statistics()
        assert stats["documents"] == 4
        assert stats["topics"] == 2
        assert stats["min_topic_size"] == 1
        assert stats["max_topic_size"] == 3
        assert stats["median_topic_size"] == 2.0
        assert stats["mean_topic_size"] == 2.0

    def test_statistics_empty_window(self):
        stats = TimeWindow(0, 0.0, 10.0, ()).statistics()
        assert stats["documents"] == 0
        assert stats["topics"] == 0


class TestSplitIntoWindows:
    def test_basic_split(self):
        windows = split_into_windows(docs_at([0.5, 10.5, 20.5]), 10.0)
        assert len(windows) == 3
        assert [len(w) for w in windows] == [1, 1, 1]

    def test_boundaries_are_half_open(self):
        windows = split_into_windows(docs_at([0.0, 10.0]), 10.0)
        assert len(windows) == 2
        assert windows[0].documents[0].timestamp == 0.0
        assert windows[1].documents[0].timestamp == 10.0

    def test_empty_middle_window_kept(self):
        windows = split_into_windows(docs_at([0.5, 25.0]), 10.0)
        assert len(windows) == 3
        assert len(windows[1]) == 0

    def test_explicit_end_extends_coverage(self):
        windows = split_into_windows(docs_at([0.5]), 10.0, end=35.0)
        assert len(windows) == 4

    def test_end_on_boundary_opens_no_extra_window(self):
        windows = split_into_windows(docs_at([0.5]), 10.0, end=30.0)
        assert len(windows) == 3

    def test_document_lands_in_the_window_that_holds_it(self):
        # 4.3 / 0.1 is 42.99999999999999, so floor bucketing put the
        # document in [4.2, 4.3), which does not hold it
        windows = split_into_windows(docs_at([4.3]), 0.1)
        last = windows[-1]
        assert [d.timestamp for d in last.documents] == [4.3]
        assert last.start <= 4.3 < last.end
        assert all(len(w) == 0 for w in windows[:-1])

    def test_origin_offset(self):
        windows = split_into_windows(docs_at([5.5]), 10.0, origin=5.0)
        assert windows[0].start == 5.0
        assert len(windows[0]) == 1

    def test_document_before_origin_rejected(self):
        with pytest.raises(ConfigurationError):
            split_into_windows(docs_at([1.0]), 10.0, origin=5.0)

    def test_no_documents(self):
        assert split_into_windows([], 10.0) == []

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            split_into_windows(docs_at([0.0]), 0.0)

    def test_documents_sorted_within_window(self):
        windows = split_into_windows(docs_at([3.0, 1.0, 2.0]), 10.0)
        times = [d.timestamp for d in windows[0].documents]
        assert times == sorted(times)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), max_size=40),
           st.floats(min_value=0.5, max_value=50.0, allow_nan=False))
    def test_partition_is_lossless_and_disjoint(self, times, width):
        docs = docs_at(times)
        windows = split_into_windows(docs, width)
        ids = [d.doc_id for w in windows for d in w.documents]
        assert sorted(ids) == sorted(d.doc_id for d in docs)
        for window in windows:
            for doc in window.documents:
                assert window.start <= doc.timestamp < window.end
