#!/usr/bin/env python
"""Observability: tracing every phase of the incremental pipeline.

Runs a two-week stream through the incremental clusterer with an
in-memory recorder attached, then prints what the instrumentation saw:
per-phase wall time, per-batch counters (documents observed/expired),
K-means iteration gauges, and repair-move counts. Finally writes the
same event stream as JSON Lines — the format ``repro cluster --trace``
produces.

Run:  python examples/pipeline_trace.py
"""

import json
import random
import tempfile

from repro import ForgettingModel, IncrementalClusterer, DocumentRepository
from repro.obs import InMemoryRecorder, JsonlRecorder, summarize

TOPICS = {
    "markets": "stocks market shares investors trading rally selloff "
               "earnings forecast exchange",
    "storm": "hurricane storm landfall evacuation winds flooding coast "
             "forecasters shelters damage",
    "election": "election campaign candidate ballot polls debate "
                "turnout primary voters runoff",
}


def build_feed(days=14, seed=7):
    rng = random.Random(seed)
    repo = DocumentRepository()
    serial = 0
    for day in range(days):
        for topic, vocabulary in TOPICS.items():
            # the storm story breaks in the second week
            if topic == "storm" and day < 7:
                continue
            for _ in range(4):
                words = rng.choices(vocabulary.split(), k=40)
                words += rng.choices("city region report today".split(), k=6)
                repo.add_text(
                    doc_id=f"story{serial:04d}",
                    timestamp=day + rng.random(),
                    text=" ".join(words),
                    topic_id=topic,
                )
                serial += 1
    return repo


def run(repo, recorder):
    model = ForgettingModel(half_life=3.0, life_span=9.0)
    clusterer = IncrementalClusterer(model, k=3, seed=0, recorder=recorder)
    results = []
    for day in range(14):
        batch = repo.between(float(day), float(day + 1))
        if batch:
            results.append(
                clusterer.process_batch(batch, at_time=float(day + 1))
            )
    return results


def main():
    repo = build_feed()

    # 1. collect events in memory and aggregate them
    recorder = InMemoryRecorder()
    results = run(repo, recorder)
    summary = summarize(recorder.events)

    print(f"{len(recorder.events)} events over "
          f"{len(results)} batches\n")

    print("counters:")
    for name, total in sorted(summary["counters"].items()):
        print(f"  {name:32s} {total:10.0f}")

    print("\nphase wall time (seconds, whole run):")
    for name, stats in sorted(summary["spans"].items()):
        print(f"  {name:32s} total {stats['total']:8.4f}  "
              f"x{stats['count']:<4.0f} mean {stats['mean']:.5f}")

    print("\nlatest gauges:")
    for name, stats in sorted(summary["gauges"].items()):
        print(f"  {name:32s} {stats['last']:10.3f}")

    # 2. the same events as a JSONL trace file (what --trace writes)
    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as tmp:
        path = tmp.name
    with JsonlRecorder(path) as sink:
        run(build_feed(), sink)
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    print(f"\nJSONL trace: {len(lines)} lines at {path}; first two:")
    for line in lines[:2]:
        print(" ", json.dumps(json.loads(line), sort_keys=True))


if __name__ == "__main__":
    main()
