"""The streaming service: one writer thread, lock-free readers.

:class:`ClusterService` wraps an :class:`~repro.core.incremental.
IncrementalClusterer` in a long-running single-writer loop:

* **Ingestion** is serialized through a bounded :class:`queue.Queue`
  drained by one writer thread. Producers (:meth:`add`, the
  :meth:`feed` windower, the :meth:`tail_jsonl` file tailer, the HTTP
  endpoint) enqueue batches; the writer runs ``process_batch`` on each
  in arrival order, one at a time. A full queue blocks producers,
  which is the backpressure story.
* **Publication** rides the clusterer's transactional commit hooks:
  after a batch commits (and after the optional
  :class:`~repro.durability.Checkpointer` journals it, so the snapshot
  version *is* the journal sequence), the writer builds an immutable
  :class:`~repro.service.snapshot.ClusterSnapshot` and installs it with
  a single attribute assignment. That reference swap is atomic under
  CPython, so readers either see the old snapshot or the new one —
  never a half-committed batch — without taking any lock.
* **Reads** (:meth:`snapshot`, :meth:`assign`, :meth:`top_clusters`,
  :meth:`members`, :meth:`stats`) grab the current snapshot reference
  and answer from its frozen arrays. They share nothing mutable with
  the writer and never block it; the only lock a reader takes guards
  the query counter for one increment.

Construct services through :func:`repro.api.open_stream`, which wires
the clusterer, durability, and the text front-end; this class is the
engine room.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .._validation import require_finite, require_positive
from ..corpus.document import Document
from ..corpus.loaders import record_to_document
from ..exceptions import (
    ConfigurationError,
    ServiceClosedError,
    ServiceDegradedError,
)
from ..obs import Span
from .snapshot import (
    ClusterInfo,
    ClusterSnapshot,
    Query,
    QueryAssignment,
    SnapshotStats,
)

if TYPE_CHECKING:
    from ..core.incremental import IncrementalClusterer
    from ..durability.checkpointer import Checkpointer
    from ..text.pipeline import TextPipeline
    from ..text.vocabulary import Vocabulary
    from .web import ServiceHTTPServer

PathLike = Union[str, Path]

#: Queue sentinel telling the writer thread to exit.
_STOP = object()


class ClusterService:
    """Long-running ingest-and-query service over one clusterer.

    Parameters
    ----------
    clusterer:
        The (already constructed) incremental pipeline. The service
        takes ownership of its commit hooks; nothing else should feed
        it batches while the service is open.
    checkpointer:
        Optional durability sidecar. When present, its
        ``record_batch`` hook is registered *before* the publish hook,
        so every published snapshot's ``version`` equals the journal
        sequence of the batch it reflects — the invariant the recovery
        tests lean on.
    vocabulary / pipeline:
        Text front-end attached to published snapshots so readers can
        ``assign("raw text")``; also required by :meth:`tail_jsonl`.
    window_days:
        Width of the logical-time window :meth:`feed` accumulates into
        (same half-open semantics as
        :func:`repro.corpus.streams.iter_batches`). ``None`` disables
        :meth:`feed`; :meth:`add` is always available.
    queue_size:
        Bound of the ingestion queue (producers block when full).
    version:
        Initial snapshot version for services resuming from recovered
        state; defaults to the checkpointer's sequence (or 0).
    """

    def __init__(
        self,
        clusterer: "IncrementalClusterer",
        checkpointer: Optional["Checkpointer"] = None,
        vocabulary: Optional["Vocabulary"] = None,
        pipeline: Optional["TextPipeline"] = None,
        window_days: Optional[float] = None,
        queue_size: int = 64,
        version: Optional[int] = None,
    ) -> None:
        if queue_size < 1:
            raise ConfigurationError("queue_size must be >= 1")
        if window_days is not None:
            window_days = require_positive("window_days", window_days)
        self._clusterer = clusterer
        self._checkpointer = checkpointer
        self._vocabulary = vocabulary
        self._pipeline = pipeline
        self._window_days = window_days
        self._recorder = clusterer.recorder

        if version is None:
            version = checkpointer.sequence if checkpointer is not None else 0
        # the version-0 (or resumed-sequence) snapshot: readers get
        # answers from the instant the service opens
        self._snapshot: ClusterSnapshot = ClusterSnapshot.from_clusterer(
            version, clusterer, vocabulary=vocabulary, pipeline=pipeline
        )
        self._published_monotonic = time.monotonic()
        # `+= 1` is a read-modify-write; unguarded, concurrent readers
        # lose increments
        self._reader_lock = threading.Lock()
        self._reader_queries = 0
        self._batches_ingested = 0
        self._errors: List[BaseException] = []

        # feed() windowing state, guarded by _feed_lock
        self._feed_lock = threading.Lock()
        self._window: List[Document] = []
        self._window_end: Optional[float] = None

        # Vocabulary.add is check-then-act; every producer-side intern
        # (HTTP handler threads, the tailer) serializes on this lock so
        # two concurrent producers can never hand out one term_id twice
        self._intern_lock = threading.Lock()

        self._close_lock = threading.Lock()
        self._closed = False
        self._killed = False
        self._degraded = False
        self._tail_stop = threading.Event()
        self._tail_thread: Optional[threading.Thread] = None
        self._http_server: Optional["ServiceHTTPServer"] = None

        if checkpointer is not None:
            clusterer.add_commit_hook(self._record_batch)
        clusterer.add_commit_hook(self._publish)

        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_size)
        self._thread = threading.Thread(
            target=self._writer, name="repro-service-writer", daemon=True
        )
        self._thread.start()

    # -- writer machinery -------------------------------------------------

    def _writer(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                if self._killed or self._degraded:
                    continue  # crashed/degraded: drop queued work
                documents, at_time, enqueued = item
                if self._recorder.enabled:
                    self._recorder.gauge(
                        "service.ingest_lag_seconds",
                        time.monotonic() - enqueued,
                    )
                    self._recorder.gauge(
                        "service.queue_depth", self._queue.qsize()
                    )
                try:
                    self._ingest(documents, at_time)
                except Exception as exc:
                    if self._degraded:
                        # the batch committed in memory but a commit
                        # hook failed (_record_batch or _publish filed
                        # the error): memory and the journal or the
                        # published snapshot have diverged, so
                        # ingestion stops here and producers get
                        # ServiceDegradedError
                        if self._recorder.enabled:
                            self._recorder.counter("service.degraded")
                    else:
                        self._file_error(exc)
                        # the clusterer rolled the batch back; no
                        # snapshot was (or will be) published for it
                        if self._recorder.enabled:
                            self._recorder.counter(
                                "service.batches_rejected"
                            )
            finally:
                self._queue.task_done()

    def _file_error(self, exc: BaseException) -> None:
        """File a rejected batch's or a producer's error, traceback-free.

        A traceback's frames hold the batch, the pre-batch assignment
        copy and the statistics the rollback discarded; a long-running
        service that kept them would grow by one such state per
        rejection. The message and the exception chain are kept.
        """
        pending: List[Optional[BaseException]] = [exc]
        seen: Set[int] = set()
        while pending:
            link = pending.pop()
            if link is None or id(link) in seen:
                continue
            seen.add(id(link))
            link.__traceback__ = None
            pending += (link.__cause__, link.__context__)
        self._errors.append(exc)

    def _ingest(
        self, documents: Sequence[Document], at_time: float
    ) -> None:
        with Span(self._recorder, "service.ingest",
                  {"batch_size": len(documents)}):
            self._clusterer.process_batch(list(documents), at_time=at_time)
        self._batches_ingested += 1

    def _record_batch(
        self, documents: List[Document], at_time: float
    ) -> None:
        """Commit hook: journal the batch via the checkpointer.

        A failure here is NOT a rollback — per ``add_commit_hook`` the
        batch stays committed in memory while the journal misses it.
        Flag the divergence before re-raising so the writer stops
        ingesting instead of filing the batch as rejected (the publish
        hook never runs, so readers keep seeing the last snapshot that
        still matches the journal).
        """
        assert self._checkpointer is not None
        try:
            self._checkpointer.record_batch(documents, at_time)
        except BaseException as exc:
            # file the error first: whoever sees `degraded` must also
            # see its cause as the last of `errors`
            self._errors.append(exc)
            self._degraded = True
            raise

    def _publish(self, documents: List[Document], at_time: float) -> None:
        """Commit hook: build and atomically install the next snapshot.

        Runs on the writer thread, after the checkpointer's hook — so
        ``checkpointer.sequence`` already names this batch and the
        published version equals the journal sequence.

        A failure here is not a rollback either: the batch stays
        committed while readers would silently stay on the previous
        version. It degrades the service exactly as a journal failure
        does (see :meth:`_record_batch`).
        """
        if self._checkpointer is not None:
            version = self._checkpointer.sequence
        else:
            version = self._snapshot.version + 1
        try:
            snapshot = ClusterSnapshot.from_clusterer(
                version, self._clusterer,
                vocabulary=self._vocabulary, pipeline=self._pipeline,
            )
        except BaseException as exc:
            self._errors.append(exc)
            self._degraded = True
            raise
        # the atomic publish: a single reference assignment
        self._snapshot = snapshot
        self._published_monotonic = time.monotonic()
        if self._recorder.enabled:
            self._recorder.counter("service.snapshots_published")
            self._recorder.gauge("service.snapshot_version", version)

    def _enqueue(
        self, documents: Sequence[Document], at_time: float
    ) -> None:
        # blocks (backpressure) when the bounded queue is full
        self._queue.put((tuple(documents), float(at_time), time.monotonic()))

    # -- ingestion API ----------------------------------------------------

    def add(
        self, documents: Iterable[Document], at_time: float
    ) -> None:
        """Enqueue one batch for ingestion at logical time ``at_time``.

        Returns as soon as the batch is queued (or blocks briefly under
        backpressure); call :meth:`flush` to wait for it to commit. A
        non-finite ``at_time`` is rejected here, before it is queued.
        """
        self._require_open()
        at_time = require_finite("at_time", at_time)
        batch = tuple(documents)
        if not batch:
            return
        self._enqueue(batch, at_time)

    def feed(self, document: Document) -> None:
        """Stream one document through the service's time windower.

        Documents accumulate into half-open ``window_days``-wide
        windows anchored at the first document's timestamp (exactly
        :func:`~repro.corpus.streams.iter_batches`); a window is
        submitted with ``at_time`` = its end as soon as a document
        beyond it arrives, or on :meth:`flush`/:meth:`close`. Feed in
        timestamp order from a single producer.
        """
        self._require_open()
        if self._window_days is None:
            raise ConfigurationError(
                "feed() needs window_days; pass it to open_stream() or "
                "use add() with explicit batch times"
            )
        with self._feed_lock:
            if self._window_end is None:
                self._window_end = document.timestamp + self._window_days
            elif document.timestamp >= self._window_end:
                self._submit_window_locked()
                if document.timestamp >= self._window_end:
                    # jump the empty gap in one step: stepping a window
                    # at a time would iterate billions of times for a
                    # far-future timestamp — and never terminate once
                    # `+= window_days` is a float no-op
                    steps = (
                        (document.timestamp - self._window_end)
                        // self._window_days
                    ) + 1.0
                    self._window_end += steps * self._window_days
                    if self._window_end <= document.timestamp:
                        # float saturation: re-anchor off the grid
                        # rather than loop forever
                        self._window_end = (
                            document.timestamp + self._window_days
                        )
            self._window.append(document)

    def _submit_window_locked(self) -> None:
        """Submit the current window (if any) and advance one window."""
        assert self._window_days is not None and self._window_end is not None
        if self._window:
            batch = self._window
            self._window = []
            self._enqueue(batch, self._window_end)
        self._window_end += self._window_days

    def flush(self) -> ClusterSnapshot:
        """Submit any partial window, drain the queue, return the result.

        On return every batch enqueued before the call has committed
        (or been rejected — see :attr:`errors`) and the returned
        snapshot reflects all of them.
        """
        self._require_open()
        self._drain()
        return self._snapshot

    def _drain(self) -> None:
        with self._feed_lock:
            if self._window and self._window_end is not None:
                batch = self._window
                self._window = []
                end = self._window_end
                self._window_end += self._window_days or 0.0
                self._enqueue(batch, end)
        self._queue.join()

    def tail_jsonl(
        self, path: PathLike, poll_interval: float = 0.5
    ) -> None:
        """Follow a JSONL corpus file, feeding appended records.

        A daemon thread polls ``path`` (which may not exist yet) and
        :meth:`feed`\\ s every complete appended line as a document —
        the same record shape as :mod:`repro.corpus.loaders`, with
        terms interned into the service vocabulary. Stops at
        :meth:`close`.
        """
        self._require_open()
        if self._vocabulary is None:
            raise ConfigurationError(
                "tail_jsonl() needs a vocabulary to intern terms; pass "
                "one to open_stream()"
            )
        if self._window_days is None:
            raise ConfigurationError("tail_jsonl() needs window_days")
        if self._tail_thread is not None:
            raise ConfigurationError("already tailing a file")
        self._tail_thread = threading.Thread(
            target=self._tail_loop,
            args=(Path(path), float(poll_interval)),
            name="repro-service-tailer",
            daemon=True,
        )
        self._tail_thread.start()

    def _intern_record(self, record: Mapping[str, Any]) -> Document:
        """Rebuild a loader record, interning terms under the intern lock.

        Every producer-side intern path (the tailer thread, the HTTP
        ``/add`` handler threads) must come through here:
        ``Vocabulary.add`` is an unsynchronized check-then-act, and two
        racing producers could otherwise assign the same term_id to
        different terms.
        """
        assert self._vocabulary is not None
        with self._intern_lock:
            return record_to_document(record, self._vocabulary)

    def _tail_loop(self, path: Path, poll_interval: float) -> None:
        offset = 0
        pending = ""
        while not self._tail_stop.is_set():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    if os.fstat(handle.fileno()).st_size < offset:
                        # truncated or rotated in place: seeking past
                        # EOF would just read '' forever, so start over
                        offset = 0
                        pending = ""
                    handle.seek(offset)
                    chunk = handle.read()
                    offset = handle.tell()
            except OSError:
                chunk = ""  # not created yet (or rotated away): retry
            if chunk:
                pending += chunk
                *lines, pending = pending.split("\n")
                for line in lines:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        document = self._intern_record(record)
                        self.feed(document)
                    except ServiceClosedError:
                        return
                    except Exception as exc:
                        self._file_error(exc)
                        if self._recorder.enabled:
                            self._recorder.counter("service.tail_errors")
                continue  # drained something: poll again immediately
            self._tail_stop.wait(poll_interval)

    def serve_http(self, port: int = 0, host: str = "127.0.0.1"
                   ) -> "ServiceHTTPServer":
        """Expose the query API over HTTP (stdlib server, no deps).

        Returns the running server; its ``port`` attribute reports the
        bound port (useful with ``port=0``). Shut down automatically at
        :meth:`close`.
        """
        self._require_open()
        if self._http_server is not None:
            raise ConfigurationError("HTTP endpoint already running")
        from .web import ServiceHTTPServer

        self._http_server = ServiceHTTPServer(self, host=host, port=port)
        self._http_server.start()
        return self._http_server

    # -- read API (lock-free) ---------------------------------------------

    def _count_read(self) -> None:
        """Count one read; the writer never takes this lock."""
        with self._reader_lock:
            self._reader_queries += 1

    def snapshot(self) -> ClusterSnapshot:
        """The latest published snapshot (immutable; keep it as long as
        you like — it never changes under you)."""
        self._count_read()
        return self._snapshot

    def assign(self, query: Query) -> QueryAssignment:
        """Score ``query`` against the latest snapshot. Lock-free."""
        self._count_read()
        return self._snapshot.assign(query)

    def top_clusters(self, n: int = 10) -> List[ClusterInfo]:
        """Largest clusters of the latest snapshot. Lock-free."""
        self._count_read()
        return self._snapshot.top_clusters(n)

    def members(self, cluster_id: int) -> Tuple[str, ...]:
        """Members of one cluster in the latest snapshot. Lock-free."""
        self._count_read()
        return self._snapshot.members(cluster_id)

    def stats(self) -> SnapshotStats:
        """Stats of the latest snapshot; also emits service gauges."""
        self._count_read()
        snapshot = self._snapshot
        if self._recorder.enabled:
            self._recorder.gauge(
                "service.snapshot_age_seconds",
                time.monotonic() - self._published_monotonic,
            )
            self._recorder.gauge(
                "service.reader_queries", self._reader_queries
            )
        return snapshot.stats()

    # -- introspection ----------------------------------------------------

    @property
    def version(self) -> int:
        """Version of the latest published snapshot."""
        return self._snapshot.version

    @property
    def vocabulary(self) -> Optional["Vocabulary"]:
        """The vocabulary documents are interned into (if attached)."""
        return self._vocabulary

    @property
    def errors(self) -> Tuple[BaseException, ...]:
        """Exceptions from rejected batches and producer threads.

        Each rejected batch rolled back — unless :attr:`degraded` is
        set, in which case the last error is the commit-hook failure
        that stopped ingestion.
        """
        return tuple(self._errors)

    @property
    def degraded(self) -> bool:
        """True once a commit hook failed after its batch committed.

        The hook either journals the batch or publishes its snapshot;
        either way memory has moved past what the journal or readers
        see. Ingestion is stopped (raises
        :class:`~repro.exceptions.ServiceDegradedError`), reads keep
        answering from the last published snapshot, and
        :meth:`close` aborts instead of writing a final checkpoint so
        recovery replays the journal-consistent prefix.
        """
        return self._degraded

    @property
    def batches_ingested(self) -> int:
        """Number of batches committed since the service opened."""
        return self._batches_ingested

    @property
    def reader_queries(self) -> int:
        """Number of read-side queries answered (exact)."""
        return self._reader_queries

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._degraded:
            raise ServiceDegradedError(
                "service is degraded: a commit hook failed after "
                "its batch committed (see .errors); ingestion is "
                "stopped to keep snapshots journal-consistent"
            )
        if self._closed:
            raise ServiceClosedError("service is closed")

    # -- shutdown ---------------------------------------------------------

    def close(self) -> None:
        """Drain, checkpoint, and stop. Idempotent and thread-safe.

        Any partial :meth:`feed` window is submitted, the queue is
        drained, the checkpointer (if any) takes a final checkpoint,
        and the writer thread exits. Reads keep working on the final
        snapshot after close; ingestion raises
        :class:`~repro.exceptions.ServiceClosedError`.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._stop_sidecars()
        self._drain()
        self._stop_writer()
        if self._checkpointer is not None:
            if self._degraded:
                # a final checkpoint would capture in-memory state the
                # journal never saw; leave the on-disk prefix intact
                # for recover() instead
                self._checkpointer.abort()
            else:
                self._checkpointer.close()

    def kill(self) -> None:
        """Simulate a crash: stop *without* draining or checkpointing.

        Batches already committed are journaled (their snapshots were
        published); queued-but-uncommitted batches are dropped and the
        journal is left without a final checkpoint — exactly the state
        :func:`repro.durability.recover` is built to pick up. Test and
        drill hook; production shutdown is :meth:`close`.
        """
        with self._close_lock:
            if self._closed:
                return
            # before `closed`: whoever sees the service closed by kill()
            # knows its queued batches will be dropped
            self._killed = True
            self._closed = True
        self._stop_sidecars()
        self._stop_writer()
        if self._checkpointer is not None:
            self._checkpointer.abort()

    def _stop_sidecars(self) -> None:
        self._tail_stop.set()
        if self._tail_thread is not None:
            self._tail_thread.join()
            self._tail_thread = None
        if self._http_server is not None:
            self._http_server.stop()
            self._http_server = None

    def _stop_writer(self) -> None:
        self._queue.put(_STOP)
        self._thread.join()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"ClusterService({state}, version={self._snapshot.version}, "
            f"batches={self._batches_ingested})"
        )
