"""Tests for topic-thread tracking across clustering snapshots."""

import pytest

from repro import (
    ForgettingModel,
    IncrementalClusterer,
    TopicTracker,
)
from repro.exceptions import ConfigurationError
from tests.conftest import build_topic_repository


def run_tracked_stream(repo, days, k=4, threshold=0.3, patience=1,
                       beta=7.0, gamma=None):
    model = ForgettingModel(half_life=beta, life_span=gamma)
    clusterer = IncrementalClusterer(model, k=k, seed=0)
    tracker = TopicTracker(threshold=threshold, patience=patience)
    snapshots = []
    for day in range(days):
        batch = [d for d in repo if int(d.timestamp) == day]
        if not batch:
            clusterer.statistics.advance_to(float(day + 1))
            continue
        clusterer.process_batch(batch, at_time=float(day + 1))
        snapshot = tracker.update(clusterer.view(), at_time=float(day + 1))
        snapshots.append(snapshot)
    return clusterer, tracker, snapshots


class TestThreadContinuity:
    def test_stable_topics_form_long_threads(self):
        repo = build_topic_repository(days=8, docs_per_topic_per_day=2,
                                      topics=["sports", "finance"], seed=1)
        _, tracker, snapshots = run_tracked_stream(repo, days=8, k=2)
        long_threads = [
            t for t in tracker.threads.values() if len(t) >= 7
        ]
        assert len(long_threads) == 2
        # after the first snapshot, no births on a stable stream
        assert all(not s.born for s in snapshots[1:])

    def test_first_snapshot_births_equal_clusters(self):
        repo = build_topic_repository(days=3, seed=2)
        _, tracker, snapshots = run_tracked_stream(repo, days=3, k=4)
        first = snapshots[0]
        assert len(first.born) == len(first.cluster_to_thread)
        assert not first.continued
        assert not first.retired

    def test_emerging_topic_births_thread(self):
        """A topic appearing mid-stream creates exactly one new thread."""
        repo = build_topic_repository(days=6, docs_per_topic_per_day=2,
                                      topics=["sports", "finance"], seed=3)
        late = build_topic_repository(days=2, docs_per_topic_per_day=3,
                                      topics=["science"], seed=4)
        for i, doc in enumerate(late.documents()):
            repo.add_text(
                f"late{i}", 4.0 + doc.timestamp / 2.0,
                " ".join(
                    late.vocabulary.term(t)
                    for t, c in doc.term_counts.items() for _ in range(c)
                ),
                topic_id="science",
            )
        _, tracker, snapshots = run_tracked_stream(repo, days=6, k=3)
        births_after_start = [
            tid for s in snapshots[1:] for tid in s.born
        ]
        assert len(births_after_start) >= 1

    def test_vanished_topic_retires_thread(self):
        """A topic that stops and expires retires its thread."""
        repo = build_topic_repository(days=3, docs_per_topic_per_day=3,
                                      topics=["sports"], seed=5)
        steady = build_topic_repository(days=9, docs_per_topic_per_day=2,
                                        topics=["finance"], seed=6)
        for i, doc in enumerate(steady.documents()):
            repo.add_text(
                f"fin{i}", doc.timestamp,
                " ".join(
                    steady.vocabulary.term(t)
                    for t, c in doc.term_counts.items() for _ in range(c)
                ),
                topic_id="finance",
            )
        _, tracker, snapshots = run_tracked_stream(
            repo, days=9, k=2, gamma=4.0, beta=2.0, patience=1,
        )
        retired = [t for t in tracker.threads.values() if t.retired]
        assert retired, "the sports thread should retire after expiry"

    def test_cluster_to_thread_is_bijective(self):
        repo = build_topic_repository(days=5, seed=7)
        _, _, snapshots = run_tracked_stream(repo, days=5, k=4)
        for snapshot in snapshots:
            threads = list(snapshot.cluster_to_thread.values())
            assert len(threads) == len(set(threads))


class TestTrackerQueries:
    def test_active_threads_sorted_by_recency(self):
        repo = build_topic_repository(days=5, seed=8)
        _, tracker, _ = run_tracked_stream(repo, days=5, k=4)
        actives = tracker.active_threads()
        seen = [t.last_seen for t in actives]
        assert seen == sorted(seen, reverse=True)

    def test_thread_of_cluster(self):
        repo = build_topic_repository(days=4, seed=9)
        _, tracker, snapshots = run_tracked_stream(repo, days=4, k=4)
        last = snapshots[-1]
        for cluster_id, thread_id in last.cluster_to_thread.items():
            thread = tracker.thread_of_cluster(cluster_id)
            assert thread is not None
            assert thread.thread_id == thread_id

    def test_span_and_len(self):
        repo = build_topic_repository(days=6, topics=["sports"], seed=10)
        _, tracker, _ = run_tracked_stream(repo, days=6, k=1)
        thread = next(iter(tracker.threads.values()))
        assert len(thread) == 6
        assert thread.span == 5.0  # first event day1 .. last day6


class TestTrackerValidation:
    def test_time_must_advance(self):
        repo = build_topic_repository(days=2, seed=11)
        clusterer = IncrementalClusterer(
            ForgettingModel(half_life=7.0), k=2, seed=0
        )
        tracker = TopicTracker()
        clusterer.process_batch(repo.documents(), at_time=2.0)
        tracker.update(clusterer.view(), at_time=2.0)
        with pytest.raises(ValueError):
            tracker.update(clusterer.view(), at_time=2.0)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            TopicTracker(threshold=1.5)
        with pytest.raises(ConfigurationError):
            TopicTracker(patience=-1)


class TestPruneRetired:
    def test_prune_drops_only_retired(self):
        repo = build_topic_repository(days=3, docs_per_topic_per_day=3,
                                      topics=["sports"], seed=5)
        steady = build_topic_repository(days=9, docs_per_topic_per_day=2,
                                        topics=["finance"], seed=6)
        for i, doc in enumerate(steady.documents()):
            repo.add_text(
                f"fin{i}", doc.timestamp,
                " ".join(
                    steady.vocabulary.term(t)
                    for t, c in doc.term_counts.items() for _ in range(c)
                ),
                topic_id="finance",
            )
        _, tracker, _ = run_tracked_stream(
            repo, days=9, k=2, gamma=4.0, beta=2.0, patience=1,
        )
        retired_before = sum(1 for t in tracker.threads.values()
                             if t.retired)
        active_before = sum(1 for t in tracker.threads.values()
                            if not t.retired)
        assert retired_before >= 1
        removed = tracker.prune_retired()
        assert removed == retired_before
        assert len(tracker.threads) == active_before

    def test_keep_latest(self):
        tracker = TopicTracker()
        from repro.core.tracking import TopicThread
        for i in range(4):
            thread = TopicThread(thread_id=i, born_at=float(i))
            thread.retired = True
            tracker.threads[i] = thread
        removed = tracker.prune_retired(keep_latest=2)
        assert removed == 2
        assert set(tracker.threads) == {2, 3}
