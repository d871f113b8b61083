"""End-to-end stream benchmark: raw text → published, queryable snapshot.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bulk-weekly --seed 1998 \\
        --seconds 27 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines
before it are a human-readable report; a traced run adds one self-time
table per thread. See ``perfbench/README.md`` for the workloads and the
definition of every metric.

The program under test is imported from ``src/`` of the same checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def status_mb(field: str) -> float:
    """A ``/proc/self/status`` memory field (``VmRSS``, ``VmHWM``) in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0  # the field is in kB
    raise RuntimeError(f"no {field} in /proc/self/status")


def reset_peak_rss() -> float:
    """Lower the process's peak-RSS mark to its current RSS; returns it.

    Heap pages the inputs' generation freed are first handed back to the
    system (glibc ``malloc_trim``): left resident, the program would
    reuse them without raising its RSS.
    """
    gc.collect()
    malloc_trim = ctypes.CDLL(None).malloc_trim
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")
    return status_mb("VmRSS")


def fastest(per_rep: List[Dict[float, float]]) -> List[float]:
    """Per batch (keyed by ``at_time``), the least of its times over the
    reps: what the program costs with the host's interference, which
    only adds time, mostly removed. Batches missing from a rep (counted
    as failed) are left out."""
    common = set(per_rep[0]).intersection(*per_rep[1:])
    return [min(times[at] for times in per_rep) for at in sorted(common)]


def execute(name: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> Dict[str, object]:
    from layers import analyse, writer_wait_s
    from timeline import StampingRecorder, percentile
    from workloads import (
        WORKLOADS,
        Rep,
        RepSummary,
        mean_micro_f1,
        parity,
        prepare,
        replay,
        run_rep,
        setup_only,
    )

    workload = WORKLOADS[name]
    inputs = prepare(workload, seed, workdir)

    # the first rep measures the program's memory above what the inputs
    # already hold, and gives the parity reference and the F1 score
    baseline = reset_peak_rss()
    first = run_rep(workload, inputs, seed, workdir / "rep0", None)
    rss = status_mb("VmHWM") - baseline
    expected = replay(seed, first.batches)
    micro_f1 = mean_micro_f1(first.publishes, inputs.truth)
    reps = [RepSummary.of(first, workload)]
    del first
    for index in range(1, max(1, int(seconds // workload.rep_s))):
        gc.collect()
        reps.append(RepSummary.of(run_rep(
            workload, inputs, seed, workdir / f"rep{index}", None), workload))
    adjusted = [rep.adjusted() for rep in reps]
    setups = [rep.setup_s for rep in adjusted]
    while len(setups) < workload.setups:
        gc.collect()
        setups.append(setup_only(workload, inputs, seed,
                                 workdir / f"setup{len(setups)}"))

    traced: List[Tuple[Rep, StampingRecorder]] = []
    if trace:
        # a reader workload adds a control: the same stream, no reader
        for reader_on in (True, False) if workload.reader else (True,):
            gc.collect()
            recorder = StampingRecorder()
            traced.append((run_rep(
                workload, inputs, seed, workdir / f"traced{len(traced)}",
                recorder, reader_on,
            ), recorder))

    # correctness: every rep against one bare batch-mode replay, every
    # open-loop reader on schedule
    checked = reps + [RepSummary.of(rep, workload) for rep, _ in traced]
    parity_ok = all(parity(rep.final, expected)
                    and rep.shape == reps[0].shape for rep in checked)
    valid = all(rep.generator["valid"] for rep in checked)
    attempted = sum(rep.attempted for rep in checked)
    failed = sum(rep.failed for rep in checked)
    freshness = fastest([rep.delays for rep in adjusted])
    ingest = reps[0].docs / sum(fastest([rep.windows for rep in adjusted]))

    print(f"workload {workload.name}  seed {seed}  reps {len(reps)}  "
          f"docs/rep {reps[0].docs}  batches/rep {reps[0].batches}  "
          f"parity {'ok' if parity_ok else 'FAILED'}  "
          f"reader {'valid' if valid else 'INVALID'}  "
          f"failed {failed}/{attempted}")
    for index, rep in enumerate(checked):
        generator = rep.generator
        label = (f"rep {index}" if index < len(reps) else
                 "traced" if index == len(reps) else "traced, no reader")
        print(f"  {label}: host x{rep.host_factor:.3f}  setup "
              f"{rep.setup_s:.4f} s  region {rep.wall_s:.3f} s  failed "
              f"{rep.failed}  batches {generator['batch_rate_hz']:.2f}/s  "
              f"reads {generator['read_rate_hz']:.1f}/s, lag max "
              f"{generator['read_lag_max_ms']:.1f} ms  "
              f"{'valid' if generator['valid'] else 'INVALID'}")

    metrics: Dict[str, Tuple[float, str]]
    if not traced:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ingest_docs_per_s": (ingest, "docs/s"),
            "freshness_mean_ms": (1e3 * statistics.fmean(freshness), "ms"),
            "micro_f1": (micro_f1, "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
        print(f"  samples: {len(setups)} set-ups, {len(freshness)} "
              f"batches, each the fastest of {len(reps)} reps, "
              f"{sum(rep.reads for rep in reps)} reads; "
              f"RSS {baseline:.1f} MB before the first rep")
    else:
        rep, recorder = traced[0]
        reader_wait = 0.0
        if workload.reader:
            with_reader = writer_wait_s(rep, recorder)
            without = writer_wait_s(*traced[1])
            reader_wait = with_reader - without
            print(f"  writer wait (busy - CPU): {with_reader:.4f} s with "
                  f"the reader, {without:.4f} s without: the reader adds "
                  f"{reader_wait:+.4f} s")
        overhead = rep.wall_s - statistics.median([r.wall_s for r in reps])
        metrics, tables = analyse(rep, recorder, workload, overhead,
                                  reader_wait)
        print(f"  tracing overhead {overhead:+.4f} s (region wall, traced "
              f"minus untraced median)")
        for table in tables:
            print(table.render())
    return {
        "correct": parity_ok and valid and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": float(value), "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # every thread of the run on one CPU: on a shared host each virtual
    # CPU has its own slow and fast phases, and the host-speed slices
    # (reference.py) must run on the CPU the program runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = execute(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
