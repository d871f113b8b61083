"""Snapshot isolation: the PR's acceptance property.

Under live ingestion with at least four concurrent reader threads,
every snapshot a reader observes must equal the batch-mode clusterer
state after the same batch prefix (to 1e-9), and snapshot versions must
be monotonic and gapless — including across a hard kill and recovery.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterService
from repro.api import build_clusterer, open_stream
from tests.durability.conftest import CadenceCheckpointer

from .conftest import (
    SERVICE_KWARGS,
    assert_snapshot_parity,
    build_batches,
    build_tdt2_batches,
    probe_like,
    reference_snapshot,
)

READERS = 4

#: The streams the isolation properties run on, by number of days: the
#: two-topic daily stream, and a small seeded TDT2-generator stream in
#: 14-day windows (its length is fixed; a longer one slows the writer
#: too much under four spinning readers).
STREAMS = {
    "topics": lambda days: build_batches(days=days),
    "tdt2": lambda days: build_tdt2_batches(150, batch_days=14.0),
}


class SnapshotObserver:
    """Reader thread harness: hammers the query API, records what it saw.

    Keeps the first snapshot observed at each version (all observations
    of one version must be the *same* immutable object anyway) and every
    (version, answer) pair, so the main thread can afterwards check each
    against the batch-mode reference.
    """

    def __init__(self, service: ClusterService, probe) -> None:
        self.service = service
        self.probe = probe
        self.stop = threading.Event()
        self.versions: list = []
        self.snapshots: dict = {}
        self.failures: list = []
        self.threads = [
            threading.Thread(target=self._run, daemon=True)
            for _ in range(READERS)
        ]

    def _run(self) -> None:
        try:
            while not self.stop.is_set():
                snapshot = self.service.snapshot()
                self.versions.append(snapshot.version)
                self.snapshots.setdefault(snapshot.version, snapshot)
                stats = self.service.stats()
                answer = self.service.assign(self.probe)
                # a query is answered by ONE committed snapshot: the
                # version it reports must exist, and internal fields
                # must be mutually consistent (no torn reads)
                if stats.version != snapshot.version:
                    # another commit landed between the two reads —
                    # fine, but both must be committed versions
                    self.snapshots.setdefault(
                        stats.version, self.service.snapshot()
                    )
                if answer.version < snapshot.version:
                    self.failures.append(
                        f"assign answered from version {answer.version} "
                        f"after version {snapshot.version} was visible"
                    )
        except BaseException as exc:  # noqa: BLE001 - surfaced in test
            self.failures.append(repr(exc))

    def __enter__(self) -> "SnapshotObserver":
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=10.0)


class TestSnapshotIsolation:
    @pytest.mark.parametrize("source", STREAMS)
    def test_readers_only_see_committed_prefixes(self, source):
        vocabulary, batches = STREAMS[source](8)
        probe = probe_like(batches[0][1][0])
        clusterer = build_clusterer(**SERVICE_KWARGS)
        with ClusterService(clusterer, vocabulary=vocabulary) as service:
            with SnapshotObserver(service, probe) as observer:
                for at_time, batch in batches:
                    service.add(batch, at_time=at_time)
                    # let readers overlap in-flight ingestion
                    time.sleep(0.005)
                service.flush()
                # one more settle pass so readers see the final version
                time.sleep(0.02)
            assert not observer.failures, observer.failures[:5]

            observed = sorted(observer.snapshots)
            assert observed, "readers observed no snapshots"
            # versions are a subset of the committed batch prefixes
            assert observed[0] >= 0
            assert observed[-1] == len(batches)
            # per-thread observation order is interleaved in `versions`,
            # but the set of versions can never skip outside 0..N
            assert all(0 <= v <= len(batches) for v in observer.versions)

        # every observed snapshot equals the batch-mode state after the
        # same prefix — THE acceptance criterion, at 1e-9
        for version in observed:
            assert_snapshot_parity(
                observer.snapshots[version],
                reference_snapshot(batches, version),
            )

    @pytest.mark.parametrize("source", STREAMS)
    def test_reader_versions_monotonic_per_thread(self, source):
        vocabulary, batches = STREAMS[source](6)
        clusterer = build_clusterer(**SERVICE_KWARGS)
        per_thread: dict = {}
        stop = threading.Event()

        def reader() -> None:
            mine = per_thread.setdefault(
                threading.get_ident(), []
            )
            while not stop.is_set():
                mine.append(service.snapshot().version)

        with ClusterService(clusterer, vocabulary=vocabulary) as service:
            threads = [
                threading.Thread(target=reader, daemon=True)
                for _ in range(READERS)
            ]
            for thread in threads:
                thread.start()
            for at_time, batch in batches:
                service.add(batch, at_time=at_time)
            service.flush()
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)

        assert len(per_thread) == READERS
        for versions in per_thread.values():
            assert versions == sorted(versions), (
                "a reader saw the published version go backwards"
            )

    def test_readers_never_block_on_slow_writer(self):
        """While the writer grinds a batch, reads answer instantly from
        the previous snapshot (they take no lock the writer holds)."""
        vocabulary, batches = build_batches(days=6)
        clusterer = build_clusterer(**SERVICE_KWARGS)
        gate = threading.Event()
        original = clusterer.process_batch

        def slow_process_batch(documents, at_time):
            gate.set()
            time.sleep(0.25)
            return original(documents, at_time=at_time)

        clusterer.process_batch = slow_process_batch
        try:
            with ClusterService(
                clusterer, vocabulary=vocabulary
            ) as service:
                at_time, batch = batches[0]
                service.add(batch, at_time=at_time)
                assert gate.wait(timeout=5.0), "writer never started"
                # the writer is now mid-batch; a read must return the
                # previous (empty) snapshot immediately
                started = time.monotonic()
                snapshot = service.snapshot()
                stats = service.stats()
                elapsed = time.monotonic() - started
                assert snapshot.version == 0
                assert stats.version == 0
                assert elapsed < 0.2, (
                    f"read blocked for {elapsed:.3f}s behind the writer"
                )
                assert service.flush().version == 1
        finally:
            clusterer.process_batch = original


class TestVersionContinuity:
    @settings(max_examples=5, deadline=None)
    @given(cut=st.integers(min_value=1, max_value=5))
    def test_versions_gapless_across_kill_and_recover(
        self, cut: int, tmp_path_factory
    ):
        """Kill mid-run at an arbitrary point, recover, resume: the
        union of versions published before and after is 1..N with no
        gap and no repeat."""
        tmp_path = tmp_path_factory.mktemp("continuity")
        vocabulary, batches = build_batches(days=8)
        path = tmp_path / "run.ckpt"

        published: list = []

        clusterer = build_clusterer(**SERVICE_KWARGS)
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, path, every=2
        )
        service = ClusterService(
            clusterer, checkpointer=checkpointer, vocabulary=vocabulary
        )
        for at_time, batch in batches[:cut]:
            service.add(batch, at_time=at_time)
        service.flush()
        published.extend(range(1, service.version + 1))
        service.kill()  # no final checkpoint: recovery must replay

        with open_stream(resume=path) as session:
            assert session.version == cut, (
                "recovery lost committed batches"
            )
            for at_time, batch in batches[cut:]:
                session.add(batch, at_time=at_time)
            snapshot = session.flush()
            published.extend(range(cut + 1, snapshot.version + 1))

            assert published == list(range(1, len(batches) + 1)), (
                f"versions not gapless: {published}"
            )
            assert_snapshot_parity(
                snapshot, reference_snapshot(batches, len(batches))
            )
