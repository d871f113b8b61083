"""Future-work experiments the paper names in Section 7.

1. **K estimation** — "a method to estimate the appropriate K value":
   :func:`repro.estimate_k` sweeps K and picks the knee of the G(K)
   curve; reported against the number of topics actually present.
2. **Larger time windows** — "experiments using the small and large
   forgetting factor values on larger time window size": the six
   30-day windows are re-run as three 60-day windows.
3. **Incremental vs non-incremental quality** — "we will show that the
   incremental and the non-incremental version ... produce similar
   clustering results": both pipelines over the same daily stream,
   scored with the paper's F1 protocol.
"""

from __future__ import annotations

from repro import (
    ForgettingModel,
    IncrementalClusterer,
    NonIncrementalClusterer,
    estimate_k,
    evaluate_clustering,
    split_into_windows,
)
from repro.forgetting import CorpusStatistics
from repro.experiments import render_table
from repro.experiments.experiment2 import run_window


def bench_future_k_estimation(benchmark, windows, reporter):
    window = windows[3]
    model = ForgettingModel(half_life=7.0, life_span=30.0)
    stats = CorpusStatistics.from_scratch(
        model, window.documents, at_time=window.end
    )

    def run():
        return estimate_k(
            stats.documents(), stats,
            candidates=(4, 8, 12, 16, 24, 32, 48),
            saturation=0.05, seed=3,
        )

    estimate = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [k, f"{g:.3e}"] for k, g in sorted(estimate.curve.items())
    ]
    table = render_table(
        ["K", "clustering index G"],
        rows,
        title="Future work — K estimation by G(K) knee (window 4, β=7)",
    )
    table += (
        f"\nestimated K = {estimate.best_k} "
        f"(window holds {len(window.topic_ids())} topics, many singleton; "
        f"paper used K=24)"
    )
    reporter.add("future_k_estimation", table)
    assert 4 <= estimate.best_k <= 48


def bench_future_larger_windows(benchmark, repository, corpus_config,
                                reporter):
    """60-day windows × β ∈ {7, 30} — double the paper's window size."""
    wide = split_into_windows(
        repository.documents(), 60.0, end=corpus_config.total_days
    )

    def run_all():
        grid = {}
        for window in wide:
            if not window.documents:
                continue
            for beta in (7.0, 30.0):
                _, evaluation = run_window(
                    window.documents, at_time=window.end, beta=beta,
                    life_span=60.0,
                )
                grid[(window.index, beta)] = evaluation
        return grid

    grid = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for window in wide:
        ev7 = grid.get((window.index, 7.0))
        ev30 = grid.get((window.index, 30.0))
        if ev7 is None or ev30 is None:
            continue
        rows.append([
            f"60-day window {window.index + 1}",
            len(window),
            f"{ev7.micro_f1:.2f} / {ev30.micro_f1:.2f}",
            f"{ev7.macro_f1:.2f} / {ev30.macro_f1:.2f}",
        ])
    table = render_table(
        ["window", "docs", "micro F1 (β=7/β=30)", "macro F1 (β=7/β=30)"],
        rows,
        title="Future work — 60-day windows (K=24, γ=60)",
    )
    table += ("\nwith longer windows more of each window is 'old', so the "
              "β gap widens vs Table 4")
    reporter.add("future_larger_windows", table)
    mean7 = sum(
        grid[key].micro_f1 for key in grid if key[1] == 7.0
    ) / 3
    mean30 = sum(
        grid[key].micro_f1 for key in grid if key[1] == 30.0
    ) / 3
    assert mean30 > mean7


def bench_future_incremental_quality(benchmark, repository, reporter):
    """Incremental vs non-incremental clustering *quality* over one
    month of daily batches (the paper compared only their run time)."""
    docs = [d for d in repository.documents() if d.timestamp < 30.0]
    batches = [
        [d for d in docs if int(d.timestamp) == day] for day in range(30)
    ]
    model = ForgettingModel(half_life=7.0, life_span=14.0)

    def run():
        pipelines = {
            "incremental (warm start)":
                IncrementalClusterer(model, k=24, seed=7),
            "non-incremental (cold)":
                NonIncrementalClusterer(model, k=24, seed=7),
        }
        results = {name: [] for name in pipelines}
        for day, batch in enumerate(batches):
            if not batch:
                continue
            for name, clusterer in pipelines.items():
                results[name].append(
                    clusterer.process_batch(batch, at_time=float(day + 1))
                )
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    truth = {d.doc_id: d.topic_id for d in docs}
    rows = []
    for name, per_batch in results.items():
        evaluation = evaluate_clustering(per_batch[-1].clusters, truth)
        rows.append([
            name,
            f"{evaluation.micro_f1:.2f}",
            f"{evaluation.macro_f1:.2f}",
            sum(r.iterations for r in per_batch),
            f"{sum(r.timings['clustering'] for r in per_batch):.2f}s",
        ])
    table = render_table(
        ["pipeline", "micro F1", "macro F1", "total iterations", "time"],
        rows,
        title="Future work — incremental vs non-incremental quality "
              "(30 daily batches, K=24, β=7, γ=14)",
    )
    reporter.add("future_incremental_quality", table)
    gap = abs(float(rows[0][1]) - float(rows[1][1]))
    assert gap < 0.2
