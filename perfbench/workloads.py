"""Workload drivers: set-up, the measured region, reads and checks.

Every workload opens the service through :func:`repro.open_stream` with
its defaults, except the paper's Experiment 1 knobs (K=32, β=7 d,
γ=14 d) and the workload seed as the K-means seed, so that a bare
:func:`repro.build_clusterer` replay can check the served result.

One *rep* is: set up a session (timed as ``setup_s``) and run the
measured region, a closed loop with one ``feed()`` window in flight.
``durable-daily`` also reads, open loop, beside the writer. A commit hook
added on ``session.clusterer`` after the service's own hooks stamps each
publish with the batch's logical time, which pairs it with its release.

Every rep of a run replays the same batches, so each batch is timed once
per rep; the end-to-end figures take, per batch, the fastest of those
times. On a shared host, interference from other tenants only ever adds
time, and it comes and goes within a second or two; the fastest of a few
reps of one batch is the program's own cost with most of it removed.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
import time
from bisect import bisect_left
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from corpus import (
    Read,
    generate_records,
    jsonl_between,
    read_plan,
    to_document,
    truth,
)
from reference import HostReference
from timeline import StampingRecorder, timed_fsync

from repro import ClusterSnapshot, build_clusterer, open_stream
from repro.api import StreamSession
from repro.corpus.document import Document
from repro.corpus.streams import iter_batches
from repro.eval import evaluate_clustering
from repro.obs import NULL_RECORDER, Recorder, Span, use_recorder

#: The paper's Experiment 1: K=32 clusters, half-life β=7 days,
#: life span γ=14 days.
PAPER_KNOBS = {"k": 32, "half_life": 7.0, "life_span": 14.0}

#: The open-loop reader: reads per second, and how many distinct reads
#: its plan holds (it cycles through them).
READ_RATE_HZ = 50.0
READ_PLAN = 1000
#: Head start between starting the reader and its first read.
LEAD_S = 0.05
#: A run is invalid when the reader sent this much below its rate.
MIN_RATE_SHARE = 0.95

#: Publish/release pairing tolerance on logical time (days).
AT_TIME_TOLERANCE = 1e-6
PARITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``feed()`` window width.
    window_days: float
    #: The measured stream covers days ``[first_day, first_day + days)``.
    first_day: int
    days: int
    #: Set-up ingests ``[first_day - warm_days, first_day)`` as one batch.
    warm_days: int
    durable: bool
    #: Whether an open-loop reader runs beside the writer.
    reader: bool
    #: Nominal seconds of one rep: a run makes ``seconds // rep_s`` reps
    #: (at least one), a count that does not depend on the host's speed.
    rep_s: float
    #: ``setup_s`` is the median of this many set-ups per run (the reps'
    #: own, then set-ups alone): set-ups of a tenth of a second swing
    #: with the host's speed and need more samples than long ones.
    setups: int


#: ``durable-daily`` is cut inside one of the generator's 30-day
#: windows, whose document count varies by a few percent between seeds,
#: after a warm-up of one life span γ, so the active set starts at its
#: steady size.
WORKLOADS: Dict[str, Workload] = {
    "bulk-weekly": Workload("bulk-weekly", 7.0, 0, 178, 0, False, False,
                            6.5, 21),
    "durable-daily": Workload("durable-daily", 1.0, 30, 15, 14, True, True,
                              9.0, 5),
}


@dataclass
class Inputs:
    truth: Dict[str, Optional[str]]
    warm_lines: List[str]
    stream_path: Path
    reads: List[Read]


def prepare(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the inputs."""
    records = generate_records(seed)
    first, end = workload.first_day, workload.first_day + workload.days
    stream_path = workdir / "stream.jsonl"
    stream_path.write_text(
        "".join(jsonl_between(records, first, end)), encoding="utf-8"
    )
    reads = read_plan(seed, READ_PLAN) if workload.reader else []
    warm = jsonl_between(records, first - workload.warm_days, first)
    return Inputs(truth(records), warm, stream_path, reads)


# -- producer and readers ---------------------------------------------------


class Producer:
    """Raw JSONL line → tokenize → intern → :class:`Document`."""

    def __init__(self, session: StreamSession, recorder: Recorder) -> None:
        pipeline = session.snapshot().pipeline
        assert pipeline is not None  # open_stream always attaches one
        self.pipeline = pipeline
        self.vocabulary = session.vocabulary
        self.recorder = recorder

    def document(self, line: str) -> Document:
        recorder = self.recorder
        with Span(recorder, "producer.parse"):
            record = json.loads(line)
        with Span(recorder, "text.tokenize"):
            counts = self.pipeline.term_frequencies(record["text"])
        with Span(recorder, "text.intern"):
            term_counts = self.vocabulary.add_counts(counts)
        return to_document(record, term_counts)


@dataclass
class ReadLog:
    kinds: List[str] = field(default_factory=list)
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def latency(self, kind: Optional[str] = None) -> List[float]:
        """Completion minus scheduled time."""
        return [d - q for k, q, d in zip(self.kinds, self.due, self.done)
                if kind is None or k == kind]

    def busy(self, kind: Optional[str] = None) -> List[float]:
        """Time inside the read call."""
        return [d - s for k, s, d in zip(self.kinds, self.sent, self.done)
                if kind is None or k == kind]

    def lag(self) -> List[float]:
        """How late each read was sent."""
        return [s - q for q, s in zip(self.due, self.sent)]


def sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def read_once(session: StreamSession, read: Read, recorder: Recorder,
              due: float, log: ReadLog) -> None:
    send = time.perf_counter()
    try:
        with Span(recorder, f"reader.{read.kind}"):
            if read.kind == "assign":
                session.assign(read.text)
            else:
                session.top_clusters(10)
    except Exception as exc:  # a failed read is counted, not fatal
        log.errors.append(repr(exc))
    log.done.append(time.perf_counter())
    log.kinds.append(read.kind)
    log.due.append(due)
    log.sent.append(send)


def open_loop_reads(session: StreamSession, reads: Sequence[Read],
                    recorder: Recorder, start: float,
                    stop: threading.Event) -> ReadLog:
    """Issue ``reads`` (cycling) at :data:`READ_RATE_HZ` from ``start``
    until ``stop`` is set; latency counts from each read's scheduled
    time."""
    log = ReadLog()
    for index in itertools.count():
        due = start + index / READ_RATE_HZ
        with Span(recorder, "reader.schedule_wait"):
            sleep_until(due)
        if stop.is_set():
            break
        read_once(session, reads[index % len(reads)], recorder, due, log)
    return log


class ReaderThread(threading.Thread):
    """The open-loop reader; :meth:`finish` stops and joins it and
    re-raises whatever stopped it early."""

    def __init__(self, session: StreamSession, reads: Sequence[Read],
                 recorder: Recorder, start: float) -> None:
        super().__init__(name="perfbench-reader")
        self.start_at = start
        self.stop = threading.Event()
        self.plan = (session, reads, recorder, start, self.stop)
        self.log = ReadLog()
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self.log = open_loop_reads(*self.plan)
        except BaseException as exc:  # handed to the joining thread
            self.error = exc

    def finish(self) -> ReadLog:
        self.stop.set()
        self.join()
        if self.error is not None:
            raise self.error
        return self.log


# -- one rep ------------------------------------------------------------------


@dataclass(frozen=True)
class Publish:
    at_time: float
    stamp: float
    version: int
    clusters: Tuple[Tuple[str, ...], ...]
    outliers: Tuple[str, ...]


@dataclass(eq=False)
class Rep:
    setup_s: float
    start: float
    end: float
    docs: List[Document]
    #: ``(logical time, documents)`` of every batch the service
    #: should have published, the set-up batch first.
    batches: List[Tuple[float, List[Document]]]
    releases: List[Tuple[float, float]]  # (at_time, release stamp)
    #: ``at_time`` → seconds from the window's first line read until
    #: ``flush()`` returned with it published. The windows and the
    #: reference slices between them tile the region.
    windows: Dict[float, float]
    publishes: List[Publish]
    final: ClusterSnapshot
    rejected: int
    reads: ReadLog
    producer_thread: int
    reader_thread: int
    read_phase: Tuple[float, float]
    stemmer: Dict[str, int]
    vocabulary_terms: int
    #: The host's slowness during the rep (see ``reference.py``).
    host_factor: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def freshness(self) -> Tuple[Dict[float, float], int]:
        """Release→publish delay of each release's ``at_time``, paired by
        logical time, and the number of releases or publishes left
        without a partner."""
        releases = sorted(self.releases)
        times = [at for at, _ in releases]
        used = [False] * len(releases)
        delays: Dict[float, float] = {}
        unpaired = 0
        for publish in self.publishes:
            i = bisect_left(times, publish.at_time - AT_TIME_TOLERANCE)
            if (i < len(times) and not used[i]
                    and abs(times[i] - publish.at_time) <= AT_TIME_TOLERANCE):
                used[i] = True
                delays[times[i]] = publish.stamp - releases[i][1]
            else:
                unpaired += 1
        return delays, unpaired + used.count(False)


#: What parity compares of a final snapshot: version, clusters,
#: outliers and clustering index.
Digest = Tuple[int, Tuple[Tuple[str, ...], ...], Tuple[str, ...], float]


def digest(snapshot: ClusterSnapshot) -> Digest:
    return (snapshot.version, snapshot.clusters, snapshot.outliers,
            snapshot.clustering_index)


@dataclass(frozen=True)
class RepSummary:
    """What the checks and the end-to-end metrics need of a rep, so that
    a finished rep's session, documents and snapshots are freed before
    the next rep runs."""

    setup_s: float
    wall_s: float
    docs: int
    batches: int
    #: ``(logical time, document ids)`` of every batch.
    shape: Tuple[Tuple[float, Tuple[str, ...]], ...]
    final: Digest
    #: ``at_time`` → release→publish delay, and ``at_time`` → window
    #: seconds.
    delays: Dict[float, float]
    windows: Dict[float, float]
    attempted: int
    failed: int
    reads: int
    generator: Dict[str, float]
    host_factor: float

    @classmethod
    def of(cls, rep: "Rep", workload: Workload) -> "RepSummary":
        delays, unpaired = rep.freshness()
        return cls(
            setup_s=rep.setup_s, wall_s=rep.wall_s, docs=len(rep.docs),
            batches=len(rep.releases),
            shape=tuple((at, tuple(d.doc_id for d in batch))
                        for at, batch in rep.batches),
            final=digest(rep.final), delays=delays, windows=rep.windows,
            attempted=len(rep.releases) + len(rep.reads.kinds),
            failed=rep.rejected + len(rep.reads.errors) + unpaired,
            reads=len(rep.reads.kinds),
            generator=generator_validity(rep, workload),
            host_factor=rep.host_factor,
        )

    def adjusted(self) -> "RepSummary":
        """The set-up, delays and window times divided by the rep's host
        factor."""
        factor = self.host_factor
        return replace(
            self, setup_s=self.setup_s / factor,
            delays={at: d / factor for at, d in self.delays.items()},
            windows={at: w / factor for at, w in self.windows.items()},
        )


def stemmer_memo(session: StreamSession, method: str) -> Any:
    """``method`` (``cache_clear`` or ``cache_info``) of the session's
    stemmer memo, or None when its stemmer keeps none."""
    stemmer = getattr(session.snapshot().pipeline, "stemmer", None)
    return getattr(stemmer, method, None)


def open_session(workload: Workload, seed: int, statedir: Path,
                 recorder: Optional[Recorder]) -> StreamSession:
    kwargs: Dict[str, object] = dict(PAPER_KNOBS, seed=seed,
                                     window_days=workload.window_days)
    if workload.durable:
        kwargs["checkpoint"] = statedir / "state.ckpt"
    if recorder is not None:
        kwargs["recorder"] = recorder
    return open_stream(**kwargs)  # type: ignore[arg-type]


def set_up(workload: Workload, inputs: Inputs, seed: int, statedir: Path,
           recorder: Optional[Recorder]
           ) -> Tuple[StreamSession, float, List[Tuple[float, List[Document]]]]:
    """Open a session and ingest the warm-up batch; returns the set-up
    time, from ``open_stream()`` until the first document can be fed."""
    statedir.mkdir(parents=True)
    start = time.perf_counter()
    session = open_session(workload, seed, statedir, recorder)
    clear = stemmer_memo(session, "cache_clear")
    if clear is not None:
        clear()  # every rep starts cold, as a new process would
    batches: List[Tuple[float, List[Document]]] = []
    if inputs.warm_lines:
        producer = Producer(session, recorder or NULL_RECORDER)
        warm = [producer.document(line) for line in inputs.warm_lines]
        at_time = float(workload.first_day)
        session.add(warm, at_time=at_time)
        session.flush()
        batches.append((at_time, warm))
    return session, time.perf_counter() - start, batches


def add_publish_hook(session: StreamSession) -> List[Publish]:
    publishes: List[Publish] = []

    def on_commit(documents: List[Document], at_time: float) -> None:
        snapshot = session.snapshot()
        publishes.append(Publish(
            at_time, time.perf_counter(), snapshot.version,
            snapshot.clusters, snapshot.outliers,
        ))

    session.clusterer.add_commit_hook(on_commit)
    return publishes


def closed_loop(session: StreamSession, path: Path, window_days: float,
                recorder: Recorder, reference: HostReference
                ) -> Tuple[float, List[Document], List[Tuple[float, float]],
                           Dict[float, float]]:
    """Closed loop, one window in flight: ``feed()`` a window's lines;
    when the first document beyond it is read (or the stream ends),
    release the window with ``flush()`` and wait for its publish before
    feeding on. Its logical time is the window end, as in ``feed()``.
    A reference slice is timed after each publish, outside the windows.

    Returns the region start, the documents, the releases and the
    seconds each window took, first line read to ``flush()`` returned.
    """
    producer = Producer(session, recorder)
    docs: List[Document] = []
    releases: List[Tuple[float, float]] = []
    windows: Dict[float, float] = {}
    window_end: Optional[float] = None
    start = opened = time.perf_counter()

    def release(at_time: float) -> None:
        nonlocal opened
        releases.append((at_time, time.perf_counter()))
        with Span(recorder, "session.flush"):
            session.flush()
        windows[at_time] = time.perf_counter() - opened
        with Span(recorder, "host.reference"):
            reference.sample()
        opened = time.perf_counter()

    with open(path, encoding="utf-8") as handle:
        while True:
            with Span(recorder, "producer.read"):
                line = handle.readline()
            if not line:
                break
            doc = producer.document(line)
            if window_end is None:
                window_end = doc.timestamp + window_days
            elif doc.timestamp >= window_end:
                release(window_end)
                while doc.timestamp >= window_end:
                    window_end += window_days
            docs.append(doc)
            with Span(recorder, "session.feed"):
                session.feed(doc)
    if window_end is not None:
        release(window_end)
    return start, docs, releases, windows


def run_rep(workload: Workload, inputs: Inputs, seed: int, statedir: Path,
            recorder: Optional[StampingRecorder], reader_on: bool = True
            ) -> Rep:
    """One set-up plus measured region.

    ``reader_on=False`` runs a reader workload's stream without its
    reader: the control that shows what the reader costs the writer.
    """
    rec: Recorder = recorder if recorder is not None else NULL_RECORDER
    with ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(use_recorder(recorder))
            stack.enter_context(timed_fsync(recorder))
        session, setup_s, batches = set_up(
            workload, inputs, seed, statedir, recorder
        )
        stack.callback(session.close)
        publishes = add_publish_hook(session)
        reference = HostReference()
        reader: Optional[ReaderThread] = None
        if workload.reader and reader_on:
            reader = ReaderThread(session, inputs.reads, rec,
                                  time.perf_counter() + LEAD_S)
            reader.start()
        try:
            start, docs, releases, windows = closed_loop(
                session, inputs.stream_path, workload.window_days, rec,
                reference,
            )
            end = time.perf_counter()
        finally:
            reads = reader.finish() if reader is not None else ReadLog()
        if reader is not None:
            assert reader.ident is not None
            reader_thread = reader.ident
            read_phase = (reader.start_at, time.perf_counter())
        else:
            reader_thread, read_phase = threading.get_ident(), (end, end)
        measured = list(iter_batches(docs, workload.window_days))
        final = session.snapshot()
        info = stemmer_memo(session, "cache_info")
        rep = Rep(
            setup_s=setup_s, start=start, end=end, docs=docs,
            batches=batches + measured, releases=releases, windows=windows,
            publishes=publishes, final=final,
            rejected=len(session.errors), reads=reads,
            producer_thread=threading.get_ident(),
            reader_thread=reader_thread, read_phase=read_phase,
            stemmer=dict(info()) if info is not None else {},
            vocabulary_terms=len(session.vocabulary),
            host_factor=reference.factor(),
        )
    return rep


def setup_only(workload: Workload, inputs: Inputs, seed: int,
               statedir: Path) -> float:
    """One set-up alone, divided by the host factor of the reference
    slices timed right before and after it."""
    reference = HostReference()
    reference.sample()
    session, setup_s, _ = set_up(workload, inputs, seed, statedir, None)
    session.close()
    reference.sample()
    return setup_s / reference.factor()


# -- checks and scores --------------------------------------------------------


def replay(seed: int, batches: Sequence[Tuple[float, List[Document]]]
           ) -> Digest:
    """The batch-mode reference: a bare pipeline fed the same batches."""
    reference = build_clusterer(**PAPER_KNOBS, seed=seed)  # type: ignore[arg-type]
    for at_time, batch in batches:
        reference.process_batch(list(batch), at_time=at_time)
    return digest(ClusterSnapshot.from_clusterer(len(batches), reference))


def parity(served: Digest, expected: Digest) -> bool:
    return (
        served[:3] == expected[:3]
        and math.isclose(served[3], expected[3],
                         rel_tol=PARITY_TOLERANCE, abs_tol=PARITY_TOLERANCE)
    )


def mean_micro_f1(publishes: Sequence[Publish],
                  labels: Dict[str, Optional[str]]) -> float:
    """Mean micro-averaged F1 over the published snapshots, each scored
    against the topics of the documents it holds."""
    scores = []
    for publish in publishes:
        held = [d for c in publish.clusters for d in c]
        held.extend(publish.outliers)
        evaluation = evaluate_clustering(
            publish.clusters, {d: labels[d] for d in held}
        )
        scores.append(evaluation.micro_f1)
    return statistics.fmean(scores) if scores else 0.0


def span_rate(sent: Sequence[float], scheduled_hz: float
              ) -> Tuple[float, float]:
    """Achieved rate of a schedule, and its share of the target rate
    (0 and 1 for a schedule with fewer than two sends)."""
    if len(sent) < 2 or sent[-1] <= sent[0]:
        return 0.0, 1.0
    achieved = (len(sent) - 1) / (sent[-1] - sent[0])
    return achieved, achieved / scheduled_hz


def generator_validity(rep: Rep, workload: Workload) -> Dict[str, float]:
    """The closed loop's achieved batch rate; the reader's lag and
    achieved rate, and whether it kept its schedule (``valid`` 1.0) or
    fell behind (0.0). A rep without a reader is always valid."""
    read_rate, read_share = span_rate(rep.reads.sent, READ_RATE_HZ)
    return {"read_lag_max_ms": 1e3 * max(rep.reads.lag(), default=0.0),
            "batch_rate_hz": len(rep.releases) / rep.wall_s,
            "read_rate_hz": read_rate,
            "valid": 1.0 if read_share >= MIN_RATE_SHARE else 0.0}
