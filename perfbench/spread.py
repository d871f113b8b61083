"""Run-to-run spread of the benchmark across seeds.

Runs ``perfbench/run.py`` untraced once per seed, one run at a time,
and reports for every end-to-end metric its median and the distance
between its first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound in
``BENCHMARK.json``::

    python3 perfbench/spread.py --workload durable-daily --seeds 1 2 3 4 5

Exits with status 1 if any run is not correct or fails to report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: Dict[str, List[float]] = {}
    ok = True
    for seed in args.seeds:
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"seed {seed}: correct {result['correct']} failed "
              f"{result['failed']}/{result['attempted']}  " + "  ".join(
                  f"{name} {metric['value']:.4g}"
                  for name, metric in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<20} {'median':>10} {'Q1':>10} {'Q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for name, series in values.items():
        mid = statistics.median(series)
        q1 = q3 = mid
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        print(f"{name:<20} {mid:>10.4g} {q1:>10.4g} {q3:>10.4g} "
              f"{(q3 - q1) / mid if mid else 0.0:>7.3f} {bounds[name]:>6}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
