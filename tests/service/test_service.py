"""ClusterService: writer loop, windowing, tailing, HTTP, shutdown."""

from __future__ import annotations

import gc
import json
import math
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import ClusterService, ClusterSnapshot, Document
from repro.api import build_clusterer
from repro.corpus.streams import iter_batches
from repro.durability import read_journal
from repro.exceptions import (
    ConfigurationError,
    ServiceClosedError,
    ServiceDegradedError,
)
from repro.obs import InMemoryRecorder
from repro.persistence import document_record

from tests.durability.conftest import CadenceCheckpointer

from .conftest import SERVICE_KWARGS, assert_snapshot_parity, reference_snapshot


def make_service(**kwargs):
    recorder = kwargs.pop("recorder", None)
    clusterer = build_clusterer(recorder=recorder, **SERVICE_KWARGS)
    return ClusterService(clusterer, **kwargs)


class TestIngestion:
    def test_versions_count_batches(self, stream):
        _, batches = stream
        with make_service() as service:
            assert service.version == 0
            for at_time, batch in batches:
                service.add(batch, at_time=at_time)
            snapshot = service.flush()
            assert snapshot.version == len(batches)
            assert service.batches_ingested == len(batches)
            assert_snapshot_parity(
                snapshot, reference_snapshot(batches, len(batches))
            )

    def test_empty_add_is_a_noop(self, stream):
        with make_service() as service:
            service.add([], at_time=1.0)
            assert service.flush().version == 0

    def test_rejected_batch_publishes_nothing(self, stream):
        _, batches = stream
        with make_service() as service:
            service.add(batches[0][1], at_time=5.0)
            service.flush()
            # clock cannot go backwards: this batch must be rejected
            service.add(batches[1][1], at_time=1.0)
            service.flush()
            assert service.version == 1
            assert len(service.errors) == 1
            # and the service keeps working afterwards
            service.add(batches[2][1], at_time=6.0)
            assert service.flush().version == 2

    def test_feed_windows_match_iter_batches(self, stream):
        _, batches = stream
        documents = sorted(
            (doc for _, batch in batches for doc in batch),
            key=lambda d: d.timestamp,
        )
        with make_service(window_days=2.0) as service:
            for document in documents:
                service.feed(document)
            snapshot = service.flush()

        reference = build_clusterer(**SERVICE_KWARGS)
        expected_batches = list(iter_batches(documents, 2.0))
        for at_time, batch in expected_batches:
            reference.process_batch(list(batch), at_time=at_time)
        assert snapshot.version == len(expected_batches)
        assert_snapshot_parity(
            snapshot,
            ClusterSnapshot.from_clusterer(
                len(expected_batches), reference
            ),
        )

    def test_feed_requires_window_days(self, stream):
        _, batches = stream
        with make_service() as service:
            with pytest.raises(ConfigurationError, match="window_days"):
                service.feed(batches[0][1][0])

    @pytest.mark.parametrize(
        "window_days", [0, -1.0, float("nan"), float("inf")]
    )
    def test_rejects_non_positive_or_non_finite_window_days(
        self, window_days
    ):
        # a nan/inf window would buffer every fed document and never
        # release a batch
        with pytest.raises(ConfigurationError, match="window_days"):
            make_service(window_days=window_days)

    def test_feed_jumps_far_future_gap(self, stream):
        # a single epoch-milliseconds-style timestamp used to advance
        # the window one step per iteration — billions of iterations;
        # the jump must land in one arithmetic step
        _, batches = stream
        with make_service(window_days=2.0) as service:
            for doc in batches[0][1]:
                service.feed(doc)
            far = Document(
                doc_id="far-future",
                timestamp=4.0e9,
                term_counts=dict(batches[0][1][0].term_counts),
            )
            start = time.monotonic()
            service.feed(far)
            assert time.monotonic() - start < 5.0
            snapshot = service.flush()
            # the day-0 window committed; the far-future singleton is
            # submitted by flush and rejected (everything expired,
            # 1 doc < k) — but nothing hangs and the service still works
            assert snapshot.version == 1
            assert len(service.errors) == 1

    def test_feed_terminates_when_advance_is_a_float_noop(self, stream):
        # window_end large enough that `+= window_days` rounds to a
        # no-op: the old stepping loop never terminated
        _, batches = stream
        with make_service(window_days=1.0) as service:
            doc = batches[0][1][0]
            service.feed(doc)
            huge = Document(
                doc_id="huge",
                timestamp=1.0e17,  # 1e17 + 1.0 == 1e17 in float64
                term_counts=dict(doc.term_counts),
            )
            start = time.monotonic()
            service.feed(huge)
            assert time.monotonic() - start < 5.0
            service.close()


class TestDurabilityWiring:
    def test_snapshot_version_equals_journal_sequence(self, stream, tmp_path):
        vocabulary, batches = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=100
        )
        with ClusterService(clusterer, checkpointer=checkpointer) as service:
            for at_time, batch in batches[:4]:
                service.add(batch, at_time=at_time)
            snapshot = service.flush()
            assert snapshot.version == checkpointer.sequence == 4
            contents = read_journal(checkpointer.journal_path)
            assert contents.entries[-1].sequence == snapshot.version

    def test_close_takes_final_checkpoint(self, stream, tmp_path):
        vocabulary, batches = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=100
        )
        service = ClusterService(clusterer, checkpointer=checkpointer)
        service.add(batches[0][1], at_time=batches[0][0])
        service.close()
        assert checkpointer.closed
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["sequence"] == 1

    def test_journal_failure_degrades_service(self, stream, tmp_path):
        # a commit-hook failure is NOT a rollback: the batch committed
        # in memory but was never journaled. The service must stop
        # ingesting (not file it as rejected) so no later snapshot
        # claims a journal sequence the journal does not hold.
        vocabulary, batches = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=100
        )
        service = ClusterService(clusterer, checkpointer=checkpointer)
        service.add(batches[0][1], at_time=batches[0][0])
        service.flush()
        assert service.version == 1

        def broken_record_batch(documents, at_time):
            raise OSError("journal disk gone")

        checkpointer.record_batch = broken_record_batch
        service.add(batches[1][1], at_time=batches[1][0])
        deadline = 200
        while not service.degraded and deadline:
            time.sleep(0.02)
            deadline -= 1
        assert service.degraded
        # no snapshot was published for the diverged batch
        assert service.version == 1
        assert isinstance(service.errors[-1], OSError)
        with pytest.raises(ServiceDegradedError):
            service.add(batches[2][1], at_time=batches[2][0])
        with pytest.raises(ServiceClosedError):  # subclass relation
            service.flush()
        service.close()
        # close() aborted instead of checkpointing: the on-disk state
        # is the journal-consistent prefix recover() expects
        assert checkpointer.closed
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["sequence"] == 0
        contents = read_journal(checkpointer.journal_path)
        assert [entry.sequence for entry in contents.entries] == [1]

    def test_kill_skips_final_checkpoint(self, stream, tmp_path):
        vocabulary, batches = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=100
        )
        service = ClusterService(clusterer, checkpointer=checkpointer)
        service.add(batches[0][1], at_time=batches[0][0])
        service.flush()
        service.kill()
        assert checkpointer.closed
        # the checkpoint still reflects the *initial* state; only the
        # journal knows about the batch — recovery's job
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["sequence"] == 0
        contents = read_journal(checkpointer.journal_path)
        assert [entry.sequence for entry in contents.entries] == [1]


    def test_publish_failure_degrades_service(self, stream, monkeypatch):
        # the batch committed, but its snapshot never got built: readers
        # must not silently stay on the old version while the writer
        # keeps committing batches nobody can see
        vocabulary, batches = stream
        service = ClusterService(build_clusterer(**SERVICE_KWARGS))
        service.add(batches[0][1], at_time=batches[0][0])
        assert service.flush().version == 1

        build = ClusterSnapshot.from_clusterer
        failure = RuntimeError("snapshot build failed")
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise failure
            return build(*args, **kwargs)

        monkeypatch.setattr(ClusterSnapshot, "from_clusterer", fail_once)
        service.add(batches[1][1], at_time=batches[1][0])
        deadline = 200
        while not service.degraded and deadline:
            time.sleep(0.02)
            deadline -= 1
        assert service.degraded
        assert service.errors[-1] is failure
        assert service.version == 1
        with pytest.raises(ServiceDegradedError):
            service.add(batches[2][1], at_time=batches[2][0])
        service.close()

class TestTailing:
    def test_tail_jsonl_picks_up_appended_records(self, stream, tmp_path):
        vocabulary, batches = stream
        path = tmp_path / "incoming.jsonl"
        clusterer = build_clusterer(**SERVICE_KWARGS)
        service = ClusterService(
            clusterer, vocabulary=vocabulary, window_days=1.0
        )
        try:
            service.tail_jsonl(path, poll_interval=0.02)
            with open(path, "a", encoding="utf-8") as handle:
                for _, batch in batches[:3]:
                    for doc in batch:
                        record = document_record(doc, vocabulary)
                        handle.write(json.dumps(record) + "\n")
                    handle.flush()
            deadline = 200
            while service.version < 2 and deadline:
                time.sleep(0.02)
                deadline -= 1
            snapshot = service.flush()
            # days 0,1,2 fed through 1-day windows: days 0 and 1 have
            # closed (a later document arrived); day 2 sits in the
            # partial window until flush submits it
            assert snapshot.version == 3
            assert not service.errors
        finally:
            service.close()

    def test_tail_requires_vocabulary(self, tmp_path):
        with make_service(window_days=1.0) as service:
            with pytest.raises(ConfigurationError, match="vocabulary"):
                service.tail_jsonl(tmp_path / "x.jsonl")

    def test_tail_jsonl_recovers_from_truncation(self, stream, tmp_path):
        # an in-place truncation/rotation leaves the offset past EOF;
        # read() then returns '' forever without an OSError — the
        # tailer must notice the shrinkage and start over
        vocabulary, batches = stream
        path = tmp_path / "incoming.jsonl"
        clusterer = build_clusterer(**SERVICE_KWARGS)
        service = ClusterService(
            clusterer, vocabulary=vocabulary, window_days=1.0
        )
        try:
            service.tail_jsonl(path, poll_interval=0.02)
            with open(path, "a", encoding="utf-8") as handle:
                for _, batch in batches[:3]:
                    for doc in batch:
                        record = document_record(doc, vocabulary)
                        handle.write(json.dumps(record) + "\n")
                    handle.flush()
            deadline = 200
            while service.version < 2 and deadline:
                time.sleep(0.02)
                deadline -= 1
            assert service.version >= 2
            # rotate in place: the new file is shorter than the offset.
            # A day-5 record is past every window the day 0-2 feed left
            # open (the grid anchors at the first doc's timestamp), so
            # picking it up must close the pending window
            day5 = document_record(batches[5][1][0], vocabulary)
            path.write_text(json.dumps(day5) + "\n", encoding="utf-8")
            deadline = 200
            while service.version < 3 and deadline:
                time.sleep(0.02)
                deadline -= 1
            assert service.version >= 3
            assert not service.errors
        finally:
            service.close()


class TestHTTP:
    def test_endpoints(self, stream):
        vocabulary, batches = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)
        with ClusterService(clusterer, vocabulary=vocabulary) as service:
            for at_time, batch in batches[:2]:
                service.add(batch, at_time=at_time)
            service.flush()
            server = service.serve_http(port=0)

            def get(path):
                with urllib.request.urlopen(server.url + path) as response:
                    return json.loads(response.read())

            def post(path, payload):
                request = urllib.request.Request(
                    server.url + path,
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request) as response:
                    return json.loads(response.read())

            stats = get("/stats")
            assert stats["version"] == 2
            assert stats["active_documents"] > 0

            top = get("/top?n=2")
            assert top["version"] == 2
            assert len(top["clusters"]) <= 2

            cluster_id = top["clusters"][0]["cluster_id"]
            members = get(f"/members?cluster={cluster_id}")
            assert members["members"]

            doc = batches[0][1][0]
            answer = post(
                "/assign",
                {"terms": {str(t): c for t, c in doc.term_counts.items()}},
            )
            assert answer["version"] == 2
            assert answer["cluster_id"] is not None

            queued = post("/add", {
                "documents": [
                    document_record(d, vocabulary) for d in batches[2][1]
                ],
                "at_time": batches[2][0],
            })
            assert queued == {"queued": len(batches[2][1])}
            assert service.flush().version == 3

    def test_unknown_path_is_404(self, stream):
        with make_service() as service:
            server = service.serve_http(port=0)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/nope")
            assert excinfo.value.code == 404

    def test_malformed_post_bodies_are_400(self, stream):
        # records missing required fields (KeyError) or with a
        # non-mapping 'terms' (AttributeError/TypeError) are client
        # errors, not 500s with a server traceback
        vocabulary, batches = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)
        with ClusterService(clusterer, vocabulary=vocabulary) as service:
            server = service.serve_http(port=0)

            def post_error(path, payload):
                request = urllib.request.Request(
                    server.url + path,
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request)
                return excinfo.value

            error = post_error("/add", {
                "documents": [{"timestamp": 1.0, "terms": {"a": 1}}],
                "at_time": 1.0,
            })
            assert error.code == 400
            assert "doc_id" in json.loads(error.read())["error"]

            error = post_error("/add", {
                "documents": [{"doc_id": "d", "timestamp": 1.0}],
                "at_time": 1.0,
            })
            assert error.code == 400

            error = post_error("/add", {
                "documents": [
                    {"doc_id": "d", "timestamp": 1.0, "terms": ["a"]}
                ],
                "at_time": 1.0,
            })
            assert error.code == 400

            error = post_error("/assign", {"terms": ["not", "a", "dict"]})
            assert error.code == 400

            # a negative count is rejected, not scored
            error = post_error("/assign", {"terms": {"5": -3, "6": 3}})
            assert error.code == 400
            assert "non-negative" in json.loads(error.read())["error"]

    @pytest.mark.parametrize("record", [
        {"doc_id": 7, "timestamp": 0.5, "terms": {"a": 1}},
        {"doc_id": "", "timestamp": 0.5, "terms": {"a": 1}},
        {"doc_id": "d", "timestamp": 0.5, "terms": {"a": 2.9}},
        {"doc_id": "d", "timestamp": 0.5, "terms": {"a": True}},
        {"doc_id": "d", "timestamp": 0.5, "terms": {"": 1}},
        {"doc_id": "d", "timestamp": 0.5, "terms": {"a": 0}},
        {"doc_id": "d", "timestamp": 0.5, "terms": {"a": -1}},
        {"doc_id": "d", "timestamp": float("nan"), "terms": {"a": 1}},
    ], ids=["int-doc-id", "empty-doc-id", "float-count", "bool-count",
            "empty-term", "zero-count", "negative-count", "nan-timestamp"])
    def test_undecodable_record_is_400_and_commits_nothing(
        self, stream, record
    ):
        # an integer doc_id used to be answered 202 and committed; the
        # next publish then raised on every batch while it was active
        vocabulary, batches = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)
        with ClusterService(clusterer, vocabulary=vocabulary) as service:
            server = service.serve_http(port=0)
            at_time, batch = batches[0]
            records = [document_record(d, vocabulary) for d in batch]
            # a rejected record must not intern its terms either
            assert "a" not in vocabulary
            terms_before = len(service.vocabulary)
            request = urllib.request.Request(
                server.url + "/add",
                data=json.dumps({"documents": records + [record],
                                 "at_time": at_time}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            assert service.flush().version == 0
            assert service.batches_ingested == 0
            assert not service.errors
            assert len(service.vocabulary) == terms_before

    def test_non_finite_time_is_400(self, stream):
        # float("NaN") accepts the string and json.loads a bare NaN; a
        # NaN batch time or timestamp would poison tdw for good, so the
        # boundary refuses both before anything is queued
        vocabulary, batches = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)
        with ClusterService(clusterer, vocabulary=vocabulary) as service:
            server = service.serve_http(port=0)

            def post(payload):
                request = urllib.request.Request(
                    server.url + "/add", data=payload.encode(),
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request) as response:
                        return response.status, json.loads(response.read())
                except urllib.error.HTTPError as error:
                    return error.code, json.loads(error.read())

            record = json.dumps(document_record(batches[0][1][0],
                                                vocabulary))
            for at_time in ('"NaN"', "NaN", '"inf"', "-Infinity"):
                status, body = post(
                    f'{{"documents": [{record}], "at_time": {at_time}}}'
                )
                assert status == 400, at_time
                assert "finite" in body["error"]
            bad_record = json.dumps({"doc_id": "nan-doc", "timestamp": "NaN",
                                     "terms": {"a": 1}})
            status, body = post(
                f'{{"documents": [{bad_record}], "at_time": 1.0}}'
            )
            assert status == 400
            assert "finite" in body["error"]

            at_time, batch = batches[0]
            records = json.dumps([document_record(d, vocabulary)
                                  for d in batch])
            status, _ = post(
                f'{{"documents": {records}, "at_time": {at_time!r}}}'
            )
            assert status == 202
            snapshot = service.flush()
            assert snapshot.version == 1
            assert math.isfinite(snapshot.stats().tdw)
            assert not service.errors

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5"])
    def test_bad_content_length_is_400(self, stream, length):
        # a non-integer length used to kill the handler without a
        # reply; a negative one blocked it reading until hang-up
        with make_service() as service:
            server = service.serve_http(port=0)
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as conn:
                conn.sendall(
                    b"POST /assign HTTP/1.1\r\n"
                    b"Host: localhost\r\n"
                    b"Content-Length: " + length.encode() + b"\r\n"
                    b"\r\n"
                    b'{"terms": {}}'
                )
                reply = b""
                while b"\r\n\r\n" not in reply:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
            status_line = reply.split(b"\r\n", 1)[0]
            assert status_line.split()[1] == b"400", reply
            # the server is still healthy afterwards
            with urllib.request.urlopen(server.url + "/stats") as response:
                assert json.loads(response.read())["version"] == 0


class TestInterning:
    def test_concurrent_interning_stays_bijective(self, stream):
        # Vocabulary.add is check-then-act; _intern_record is the
        # choke point every producer thread (HTTP handlers, the
        # tailer) must go through so one term_id is never handed to
        # two different terms
        vocabulary, _ = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)
        with ClusterService(clusterer, vocabulary=vocabulary) as service:
            threads = 8
            barrier = threading.Barrier(threads)

            def intern(worker: int):
                barrier.wait()  # maximize contention on the same terms
                documents = []
                for i in range(200):
                    record = {
                        "doc_id": f"w{worker}-d{i}",
                        "timestamp": 1.0,
                        # every worker races over the same new terms
                        "terms": {f"shared-{i}": 1, f"also-{i}": 2},
                    }
                    documents.append((record, service._intern_record(record)))
                return documents

            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = [
                    future.result()
                    for future in [
                        pool.submit(intern, w) for w in range(threads)
                    ]
                ]

        # the mapping is a bijection: no id was assigned twice
        ids = [vocabulary.id(term) for term in vocabulary]
        assert len(ids) == len(set(ids)) == len(vocabulary)
        # and every interned document got the ids its terms map to now
        for documents in results:
            for record, document in documents:
                expected = {
                    vocabulary.id(term): count
                    for term, count in record["terms"].items()
                }
                assert document.term_counts == expected


class TestShutdown:
    def test_close_is_idempotent(self, stream):
        service = make_service()
        service.close()
        service.close()
        assert service.closed

    def test_ingestion_after_close_raises(self, stream):
        _, batches = stream
        service = make_service()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.add(batches[0][1], at_time=1.0)
        with pytest.raises(ServiceClosedError):
            service.flush()

    def test_reads_survive_close(self, stream):
        _, batches = stream
        service = make_service()
        service.add(batches[0][1], at_time=batches[0][0])
        service.flush()
        service.close()
        assert service.snapshot().version == 1
        assert service.stats().version == 1
        assert service.top_clusters()

    def test_close_flushes_partial_feed_window(self, stream):
        _, batches = stream
        service = make_service(window_days=5.0)
        for doc in batches[0][1]:
            service.feed(doc)
        service.close()
        # the partial window was submitted and committed during close
        assert service.version == 1


class TestWriterThread:
    @staticmethod
    def held_service(**kwargs):
        """A service whose writer blocks in a commit hook on batch 1.

        The hook runs after the publish hook, so the held batch is
        already the published version while the writer waits.
        """
        clusterer = build_clusterer(**SERVICE_KWARGS)
        service = ClusterService(clusterer, **kwargs)
        entered, release = threading.Event(), threading.Event()
        calls = []

        def hold(documents, at_time):
            calls.append(at_time)
            if len(calls) == 1:
                entered.set()
                assert release.wait(timeout=30)

        clusterer.add_commit_hook(hold)
        return service, entered, release

    @pytest.mark.parametrize("stop", ["close", "kill"])
    def test_one_writer_thread_of_its_own(self, stream, stop):
        _, batches = stream
        before = set(threading.enumerate())

        def own_threads():
            return sorted(
                t.name for t in set(threading.enumerate()) - before
            )

        service = make_service()
        assert own_threads() == ["repro-service-writer"]
        service.add(batches[0][1], at_time=batches[0][0])
        service.flush()
        assert own_threads() == ["repro-service-writer"]
        getattr(service, stop)()
        assert own_threads() == []

    def test_full_queue_blocks_the_producer(self, stream):
        _, batches = stream
        service, entered, release = self.held_service(queue_size=1)
        try:
            service.add(batches[0][1], at_time=batches[0][0])
            assert entered.wait(timeout=30)  # batch 1 is in flight
            service.add(batches[1][1], at_time=batches[1][0])  # fills it
            producer = threading.Thread(
                target=service.add,
                args=(batches[2][1],),
                kwargs={"at_time": batches[2][0]},
            )
            producer.start()
            producer.join(timeout=0.3)
            assert producer.is_alive()  # blocked on the full queue
            assert service.version == 1
            release.set()
            producer.join(timeout=30)
            assert not producer.is_alive()
            assert service.flush().version == 3
            assert service.batches_ingested == 3
            assert not service.errors
        finally:
            release.set()
            service.close()

    def test_kill_drops_batches_queued_behind_the_held_one(self, stream):
        _, batches = stream
        service, entered, release = self.held_service()
        service.add(batches[0][1], at_time=batches[0][0])
        assert entered.wait(timeout=30)
        for at_time, batch in batches[1:4]:
            service.add(batch, at_time=at_time)
        killer = threading.Thread(target=service.kill)
        killer.start()
        try:
            deadline = time.monotonic() + 30
            while not service.closed and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service.closed
        finally:
            release.set()
            killer.join(timeout=30)
        assert not killer.is_alive()
        assert service.version == 1
        assert service.batches_ingested == 1
        assert not service.errors


class TestRejectedErrors:
    def test_rejected_batch_frees_the_discarded_statistics(self, stream):
        # the rollback discards the statistics the batch mutated; the
        # filed error must not keep them (or the batch) alive through
        # its traceback's frames
        _, batches = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)
        with ClusterService(clusterer) as service:
            service.add(batches[0][1], at_time=batches[0][0])
            service.flush()
            before = weakref.ref(clusterer.statistics)
            # every id is already active: the batch is rejected
            service.add(batches[0][1], at_time=batches[1][0])
            service.flush()
            gc.collect()
            assert len(service.errors) == 1
            assert service.version == 1
            assert before() is None
            assert service.errors[0].__traceback__ is None

    def test_filed_chain_keeps_causes_without_tracebacks(
        self, stream, monkeypatch
    ):
        _, batches = stream
        clusterer = build_clusterer(**SERVICE_KWARGS)

        def broken(documents, at_time):
            try:
                raise ValueError("cause")
            except ValueError as exc:
                cause = exc
            try:
                raise KeyError("context")
            except KeyError:
                raise RuntimeError("outer") from cause

        monkeypatch.setattr(clusterer, "process_batch", broken)
        with ClusterService(clusterer) as service:
            service.add(batches[0][1], at_time=batches[0][0])
            service.flush()
            (error,) = service.errors
        assert str(error) == "outer"
        assert isinstance(error.__cause__, ValueError)
        assert isinstance(error.__context__, KeyError)
        for link in (error, error.__cause__, error.__context__):
            assert link.__traceback__ is None

    def test_tailer_error_is_filed_without_traceback(
        self, stream, tmp_path
    ):
        vocabulary, _ = stream
        path = tmp_path / "incoming.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        service = ClusterService(
            build_clusterer(**SERVICE_KWARGS),
            vocabulary=vocabulary, window_days=1.0,
        )
        try:
            service.tail_jsonl(path, poll_interval=0.02)
            deadline = time.monotonic() + 30
            while not service.errors and time.monotonic() < deadline:
                time.sleep(0.01)
            (error,) = service.errors
            assert isinstance(error, json.JSONDecodeError)
            assert error.__traceback__ is None
        finally:
            service.close()


class TestReaderCounter:
    def test_concurrent_reads_are_counted_exactly(self, stream):
        # more reader threads than cores, switching as often as the
        # interpreter allows: an unguarded `+= 1` would lose counts
        threads, reads = 8, 500
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with make_service() as service:
                barrier = threading.Barrier(threads, timeout=30)

                def reader(index):
                    barrier.wait()
                    for i in range(reads):
                        if (index + i) % 2:
                            service.snapshot()
                        else:
                            service.top_clusters(1)

                with ThreadPoolExecutor(max_workers=threads) as pool:
                    futures = [pool.submit(reader, i) for i in range(threads)]
                    for future in futures:
                        future.result(timeout=60)
                assert service.reader_queries == threads * reads
        finally:
            sys.setswitchinterval(interval)


class TestObservability:
    def test_gauges_and_counters_emitted(self, stream):
        _, batches = stream
        recorder = InMemoryRecorder()
        with make_service(recorder=recorder) as service:
            service.add(batches[0][1], at_time=batches[0][0])
            service.flush()
            service.stats()
        names = recorder.names()
        assert "service.ingest" in names           # span
        assert "service.snapshot_build" in names   # span
        assert "service.ingest_lag_seconds" in names
        assert "service.snapshot_age_seconds" in names
        assert "service.reader_queries" in names
        assert recorder.total("service.snapshots_published") == 1
