"""Ablation — warm start vs cold start (Section 5.2 step 3).

The paper reuses the previous window's cluster representatives as the
initial state and claims "we can accelerate the clustering process",
leaving the quality comparison to future work. This ablation settles
both at reproduction scale: iterations/time to converge and the F1 of
warm vs cold runs over a daily stream.
"""

from __future__ import annotations

import pytest

from repro import ForgettingModel, IncrementalClusterer, evaluate_clustering
from repro.experiments import render_table
from repro.obs import InMemoryRecorder


@pytest.fixture(scope="module")
def daily_stream(repository):
    """First 30 days of the paper-scale corpus, batched per day."""
    docs = [d for d in repository.documents() if d.timestamp < 30.0]
    return [
        [d for d in docs if int(d.timestamp) == day] for day in range(30)
    ]


def _run(daily_stream, warm_start):
    """Per-batch results, and each batch's ``pipeline.clustering``
    seconds."""
    model = ForgettingModel(half_life=7.0, life_span=14.0)
    recorder = InMemoryRecorder()
    clusterer = IncrementalClusterer(
        model, k=24, seed=7, warm_start=warm_start, recorder=recorder
    )
    results = []
    for day, batch in enumerate(daily_stream):
        if batch:
            results.append(
                clusterer.process_batch(batch, at_time=float(day + 1))
            )
        else:
            clusterer.statistics.advance_to(float(day + 1))
    seconds = [event.value
               for event in recorder.select("pipeline.clustering")]
    return results, seconds


def bench_ablation_warm_vs_cold(benchmark, daily_stream, reporter):
    warm, warm_seconds = benchmark.pedantic(
        _run, args=(daily_stream, True), rounds=1, iterations=1
    )
    cold, cold_seconds = _run(daily_stream, False)

    def totals(results, seconds):
        # the first batch is identical
        return sum(r.iterations for r in results[1:]), sum(seconds[1:])

    warm_iters, warm_time = totals(warm, warm_seconds)
    cold_iters, cold_time = totals(cold, cold_seconds)

    truth = {
        d.doc_id: d.topic_id
        for batch in daily_stream for d in batch
    }
    warm_f1 = evaluate_clustering(warm[-1].clusters, truth).micro_f1
    cold_f1 = evaluate_clustering(cold[-1].clusters, truth).micro_f1

    table = render_table(
        ["init", "total iterations", "clustering seconds", "final micro F1"],
        [
            ["warm start (paper §5.2)", warm_iters, f"{warm_time:.2f}",
             f"{warm_f1:.2f}"],
            ["cold start", cold_iters, f"{cold_time:.2f}",
             f"{cold_f1:.2f}"],
        ],
        title="Ablation — warm vs cold start over 30 daily batches "
              "(K=24, β=7, γ=14)",
    )
    table += (
        "\npaper claim: warm start accelerates clustering; quality "
        "comparison was future work.\n"
        f"measured: iterations ×{cold_iters / max(1, warm_iters):.2f}, "
        f"F1 gap {abs(warm_f1 - cold_f1):.3f}"
    )
    reporter.add("ablation_warmstart", table)

    assert warm_iters <= cold_iters
    # the future-work claim: warm-start quality stays close to cold
    assert abs(warm_f1 - cold_f1) < 0.2
