"""Per-layer metrics and per-thread tables of one traced rep."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from timeline import (
    Interval,
    Stamped,
    StampingRecorder,
    ThreadTable,
    hook_gaps,
    percentile,
    self_time_rows,
    sorted_rows,
    thread_intervals,
    writer_table,
)
from workloads import Rep, Workload, generator_validity

from repro.obs import COUNTER, GAUGE

Metrics = Dict[str, Tuple[float, str]]


def spans_in(records: Sequence[Stamped], thread: int, start: float,
             end: float) -> List[Interval]:
    return [
        span for span in thread_intervals(records, thread)
        if start <= span.start and span.end <= end
    ]


def values(records: Sequence[Stamped], name: str, kind: str) -> List[float]:
    return [r.event.value for r in records
            if r.event.name == name and r.event.kind == kind]


def writer_thread(records: Sequence[Stamped]) -> int:
    threads = {r.thread for r in records if r.event.name == "service.ingest"}
    if len(threads) != 1:
        raise RuntimeError(
            f"expected one writer thread in the region, saw {len(threads)}"
        )
    return threads.pop()


def writer_cpu_s(records: Sequence[Stamped], thread: int, start: float,
                 end: float) -> float:
    """CPU the writer thread used inside the region, from the
    thread-CPU stamps of its events before and at the region's end."""
    own = [r for r in records if r.thread == thread]
    before = [r.thread_cpu for r in own if r.stamp < start]
    inside = [r.thread_cpu for r in own if start <= r.stamp <= end]
    if not inside:
        return 0.0
    return inside[-1] - (before[-1] if before else 0.0)


def writer_wait_s(rep: Rep, recorder: StampingRecorder) -> float:
    """Writer busy time minus its CPU time: waiting for the interpreter
    lock or for I/O while a batch is in hand."""
    records = recorder.records
    writer = writer_thread(recorder.between(rep.start, rep.end))
    busy = sum(s.duration for s in spans_in(records, writer, rep.start,
                                            rep.end)
               if s.name == "service.ingest")
    return busy - writer_cpu_s(records, writer, rep.start, rep.end)


def analyse(rep: Rep, recorder: StampingRecorder, workload: Workload,
            overhead_s: float, reader_wait_s: float
            ) -> Tuple[Metrics, List[ThreadTable]]:
    """Per-layer metrics and thread tables of a traced rep.

    ``reader_wait_s`` is the writer wait the reader adds: this rep's
    minus that of the same stream run without the reader.
    """
    records = recorder.records
    region = recorder.between(rep.start, rep.end)
    writer = writer_thread(region)
    wspans = spans_in(records, writer, rep.start, rep.end)
    pspans = spans_in(records, rep.producer_thread, rep.start, rep.end)
    rspans = spans_in(records, rep.reader_thread, *rep.read_phase)

    def total(spans: Sequence[Interval], *names: str) -> float:
        return sum(s.duration for s in spans if s.name in names)

    def durations_ms(spans: Sequence[Interval], name: str) -> List[float]:
        return [1e3 * s.duration for s in spans if s.name == name]

    wall = rep.wall_s
    wtable, busy = writer_table(wspans, wall)
    ptable = ThreadTable("producer", wall,
                         sorted_rows(self_time_rows(pspans)),
                         "residual (outside benchmark spans)")
    tables = [ptable, wtable]
    if workload.reader:
        tables.append(ThreadTable(
            "reader", rep.read_phase[1] - rep.read_phase[0],
            sorted_rows(self_time_rows(rspans)),
            "residual (outside benchmark spans)",
        ))

    fit_s = total(wspans, "kmeans.fit")
    vectorise_s = total(wspans, "kmeans.vectorise")
    pass_s = total(wspans, "kmeans.pass")
    save_s = total(wspans, "checkpoint.save")
    hook_s, _ = hook_gaps(wspans)
    cpu = writer_cpu_s(records, writer, rep.start, rep.end)
    queue_wait = [1e3 * v for v in values(
        region, "service.ingest_lag_seconds", GAUGE)]
    reuse = values(region, "pipeline.warm_start_reuse", GAUGE)
    active = values(region, "statistics.active_docs", GAUGE)
    ckpt_bytes = values(region, "checkpoint.bytes", GAUGE)
    info = rep.stemmer
    lookups = info.get("hits", 0) + info.get("misses", 0)
    generator = generator_validity(rep, workload)

    metrics: Metrics = {
        "text.docs": (len(rep.docs), "count"),
        "text.tokenize_s": (total(pspans, "text.tokenize"), "s"),
        "text.intern_s": (total(pspans, "text.intern"), "s"),
        "text.stemmer_hit_ratio": (
            info.get("hits", 0) / lookups if lookups else 0.0, "ratio"),
        "text.vocabulary_terms": (rep.vocabulary_terms, "count"),
        "forgetting.observe_s": (total(wspans, "statistics.observe"), "s"),
        "forgetting.expire_s": (total(wspans, "statistics.expire"), "s"),
        "forgetting.active_docs": (active[-1] if active else 0.0, "count"),
        "vectors.vectorise_s": (vectorise_s, "s"),
        "vectors.calls": (len(durations_ms(wspans, "kmeans.vectorise")),
                          "count"),
        "core.fits": (len(durations_ms(wspans, "kmeans.fit")), "count"),
        "core.fit_s": (fit_s, "s"),
        "core.passes": (len(durations_ms(wspans, "kmeans.pass")), "count"),
        "core.pass_s": (pass_s, "s"),
        "core.pass_p50_ms": (
            percentile(durations_ms(wspans, "kmeans.pass"), 50), "ms"),
        "core.pass_p90_ms": (
            percentile(durations_ms(wspans, "kmeans.pass"), 90), "ms"),
        "core.fit_other_s": (fit_s - vectorise_s - pass_s, "s"),
        "core.warm_start_reuse": (
            statistics.fmean(reuse) if reuse else 0.0, "ratio"),
        "durability.hook_s": (hook_s, "s"),
        "durability.checkpoint_save_s": (save_s, "s"),
        "durability.journal_s": (hook_s - save_s, "s"),
        "durability.fsync_s": (total(wspans, "os.fsync"), "s"),
        "durability.checkpoints": (
            len(durations_ms(wspans, "checkpoint.save")), "count"),
        "durability.checkpoint_bytes": (
            statistics.fmean(ckpt_bytes) if ckpt_bytes else 0.0, "bytes"),
        "durability.journal_batches": (
            sum(values(region, "durability.journal_batches", COUNTER)),
            "count"),
        "service.queue_wait_p50_ms": (percentile(queue_wait, 50), "ms"),
        "service.queue_wait_p90_ms": (percentile(queue_wait, 90), "ms"),
        "service.producer_blocked_s": (
            total(pspans, "session.feed", "session.add"), "s"),
        "service.writer_busy_s": (busy, "s"),
        "service.writer_idle_s": (wall - busy, "s"),
        "service.writer_cpu_s": (cpu, "s"),
        "service.writer_wait_s": (busy - cpu, "s"),
        "service.reader_added_wait_s": (reader_wait_s, "s"),
        "service.snapshot_build_s": (
            total(wspans, "service.snapshot_build"), "s"),
        "service.snapshot_build_p50_ms": (percentile(
            durations_ms(wspans, "service.snapshot_build"), 50), "ms"),
        "service.snapshot_build_p90_ms": (percentile(
            durations_ms(wspans, "service.snapshot_build"), 90), "ms"),
        "service.snapshot_terms": (rep.final.stats().terms, "count"),
        "service.publishes": (len(rep.publishes), "count"),
        "service.batches_rejected": (rep.rejected, "count"),
        "service.residual_s": (wtable.residual_s, "s"),
        "service.residual_share": (wtable.residual_s / wall, "ratio"),
        "producer.residual_share": (ptable.residual_s / wall, "ratio"),
        "reader.queries": (len(rep.reads.kinds), "count"),
        "reader.latency_p50_ms": (
            1e3 * percentile(rep.reads.latency(), 50), "ms"),
        "reader.latency_p90_ms": (
            1e3 * percentile(rep.reads.latency(), 90), "ms"),
        "reader.errors": (len(rep.reads.errors), "count"),
        "reader.assign_busy_p50_ms": (
            1e3 * percentile(rep.reads.busy("assign"), 50), "ms"),
        "reader.assign_busy_p99_ms": (
            1e3 * percentile(rep.reads.busy("assign"), 99), "ms"),
        "reader.top_busy_p50_ms": (
            1e3 * percentile(rep.reads.busy("top"), 50), "ms"),
        "generator.read_lag_max_ms": (generator["read_lag_max_ms"], "ms"),
        "generator.batch_rate_hz": (generator["batch_rate_hz"], "1/s"),
        "generator.read_rate_hz": (generator["read_rate_hz"], "1/s"),
        "generator.valid": (generator["valid"], "flag"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return metrics, tables
