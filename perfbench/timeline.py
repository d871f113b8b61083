"""Traced-run analysis: per-thread timelines rebuilt from stamped events.

:class:`StampingRecorder` is installed both as the ambient recorder and
as ``recorder=`` so every span the library already emits reaches it,
together with the spans the benchmark opens around its own calls. It
stamps each event on arrival with ``perf_counter()``, the emitting
thread and that thread's CPU clock. A span event arrives when the span
closes and carries its duration, so its interval is
``[stamp - duration, stamp]``.

From those intervals :func:`thread_intervals` rebuilds each thread's
span tree, and a :class:`ThreadTable` reports self times: a span's
duration minus the part its child spans cover. The rows of a table plus
its residual row sum to the thread's wall time over the measured region.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import SPAN, Event, Recorder, Span


@dataclass(frozen=True)
class Stamped:
    stamp: float
    thread: int
    thread_cpu: float
    event: Event


class StampingRecorder(Recorder):
    """Keeps every event with its arrival time, thread and thread CPU."""

    def __init__(self) -> None:
        self.records: List[Stamped] = []

    def emit(self, event: Event) -> None:
        self.records.append(Stamped(
            time.perf_counter(), threading.get_ident(), time.thread_time(),
            event,
        ))

    def between(self, start: float, end: float) -> List[Stamped]:
        return [r for r in self.records if start <= r.stamp <= end]


@contextmanager
def timed_fsync(recorder: Recorder) -> Iterator[None]:
    """Emit an ``os.fsync`` span around every fsync while active.

    The journal appends and fsyncs without a span of its own; timing
    the system call from outside shows that cost in the writer's
    timeline instead of leaving it to inference.
    """
    original = os.fsync

    def fsync(fd: int) -> None:
        with Span(recorder, "os.fsync"):
            original(fd)

    os.fsync = fsync
    try:
        yield
    finally:
        os.fsync = original


@dataclass
class Interval:
    name: str
    start: float
    end: float
    parent: Optional["Interval"] = None
    children: List["Interval"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


def thread_intervals(
    records: Sequence[Stamped], thread: int
) -> List[Interval]:
    """The span tree of one thread, in the order the spans closed.

    On one thread a span arrives after all of its children, so walking
    spans in arrival order, each span adopts the not-yet-adopted spans
    that arrived after it started. A stamp is taken a little after the
    span measured its end (microseconds, or milliseconds when the
    thread loses the interpreter lock in between), so a derived start
    is never early: an earlier sibling, stamped before this span began,
    is never adopted, and a child is missed only if this span's stamp
    was delayed by more than the time from its start to the child's
    end.
    """
    spans: List[Interval] = []
    open_roots: List[Interval] = []
    for r in records:
        if r.thread != thread or r.event.kind != SPAN:
            continue
        span = Interval(r.event.name, r.stamp - r.event.value, r.stamp)
        while open_roots and open_roots[-1].end > span.start:
            child = open_roots.pop()
            child.parent = span
            span.children.append(child)
        open_roots.append(span)
        spans.append(span)
    return spans


def row_name(span: Interval) -> str:
    """Table row of a span: its name, qualified by its parent for
    fsync, whose cost belongs to whichever layer called it."""
    if span.name == "os.fsync":
        parent = span.parent.name if span.parent is not None else "-"
        return f"os.fsync in {parent}"
    return span.name


@dataclass
class ThreadTable:
    """Self-time rows of one thread; rows + residual == wall."""

    thread: str
    wall_s: float
    rows: List[Tuple[str, float]]
    residual_name: str

    @property
    def residual_s(self) -> float:
        return self.wall_s - sum(value for _, value in self.rows)

    def render(self) -> str:
        width = max([len(n) for n, _ in self.rows] + [len(self.residual_name), 5])
        lines = [f"thread {self.thread}: wall {self.wall_s:.4f} s"]
        lines.append(f"  {'row':<{width}} {'seconds':>10} {'share':>7}")
        for name, value in self.rows + [(self.residual_name, self.residual_s)]:
            share = value / self.wall_s if self.wall_s > 0 else 0.0
            lines.append(f"  {name:<{width}} {value:>10.4f} {share:>7.1%}")
        total = sum(v for _, v in self.rows) + self.residual_s
        lines.append(f"  {'total':<{width}} {total:>10.4f} {1.0:>7.1%}")
        return "\n".join(lines)


def self_time_rows(
    spans: Sequence[Interval], skip: Sequence[str] = ()
) -> Dict[str, float]:
    rows: Dict[str, float] = {}
    for span in spans:
        if span.name in skip:
            continue
        key = row_name(span)
        rows[key] = rows.get(key, 0.0) + span.self_time
    return rows


def sorted_rows(rows: Dict[str, float]) -> List[Tuple[str, float]]:
    return sorted(rows.items(), key=lambda item: -item[1])


def hook_gaps(spans: Sequence[Interval]) -> Tuple[float, float]:
    """``(gap, spanned)`` summed over the writer's ``service.ingest`` spans.

    ``gap`` runs from the end of ``pipeline.clustering`` to the start of
    ``service.snapshot_build``: the commit hooks that come before the
    publish (the durability journal and checkpoint). ``spanned`` is the
    part of the gap covered by child spans of the ingest span.
    """
    gap = spanned = 0.0
    for ingest in spans:
        if ingest.name != "service.ingest":
            continue
        # arrival order is exact: the hooks' spans arrive between the two
        children = sorted(ingest.children, key=lambda c: c.end)
        names = [c.name for c in children]
        if "pipeline.clustering" not in names or (
                "service.snapshot_build" not in names):
            continue
        first = names.index("pipeline.clustering")
        last = names.index("service.snapshot_build")
        gap += max(children[last].start - children[first].end, 0.0)
        spanned += sum(c.duration for c in children[first + 1:last])
    return gap, spanned


def writer_table(
    spans: Sequence[Interval], wall_s: float
) -> Tuple[ThreadTable, float]:
    """The writer's table, and its busy time (inside ``service.ingest``).

    ``service.ingest`` self time is split into the commit-hook gap not
    covered by a span (on a durable stream, the journal's serialise and
    append) and the residual: ingest time that neither accounts for.
    """
    ingest = [s for s in spans if s.name == "service.ingest"]
    busy = sum(s.duration for s in ingest)
    gap, spanned = hook_gaps(spans)
    journal = max(gap - spanned, 0.0)
    rows = self_time_rows(spans, skip=("service.ingest",))
    rows["commit-hook gap outside spans"] = journal
    rows["idle (outside service.ingest)"] = wall_s - busy
    table = ThreadTable(
        "writer", wall_s, sorted_rows(rows),
        "residual (service.ingest self, outside hooks)",
    )
    return table, busy


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[min(int(rank), len(ordered)) - 1]
