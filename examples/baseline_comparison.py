#!/usr/bin/env python
"""Compare the paper's method against the related-work baselines.

Runs the novelty K-means and four baselines (classic K-means, INCR,
GAC, F²ICM) over the same window of the synthetic TDT2 stream and
reports the paper's evaluation measures plus a recency-weighted F1
(documents weighted by their forgetting weight), which is the measure
the novelty method actually optimises for.

Run:  python examples/baseline_comparison.py
"""

import argparse
import time

from repro import (
    CorpusStatistics,
    ForgettingModel,
    NoveltyKMeans,
    SyntheticCorpusConfig,
    TDT2Generator,
    evaluate_clustering,
    split_into_windows,
)
from repro.baselines import (
    ClassicKMeans,
    F2ICMClusterer,
    GACClusterer,
    INCRClusterer,
)
from repro.experiments import render_table


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--window", type=int, default=4)
    parser.add_argument("--k", type=int, default=24)
    args = parser.parse_args()

    print("generating the synthetic TDT2 corpus ...")
    config = SyntheticCorpusConfig(seed=1998)
    repository = TDT2Generator(config).generate()
    windows = split_into_windows(
        repository.documents(), config.window_days, end=config.total_days
    )
    window = windows[args.window - 1]
    docs = window.documents
    truth = {d.doc_id: d.topic_id for d in docs}
    print(f"window {args.window}: {len(docs)} documents, "
          f"{len(window.topic_ids())} topics; K/target = {args.k}\n")

    model = ForgettingModel(half_life=7.0, life_span=30.0)
    stats = CorpusStatistics.from_scratch(model, docs, at_time=window.end)

    runs = {}

    def run(name, fit, *args):
        """Record ``fit(*args)`` under ``name`` with its wall time."""
        start = time.perf_counter()
        result = fit(*args)
        runs[name] = result, time.perf_counter() - start

    print("running novelty K-means (the paper's method) ...")
    run("novelty K-means (paper)", NoveltyKMeans(k=args.k, seed=3).fit,
        stats.documents(), stats)
    print("running classic K-means ...")
    run("classic K-means", ClassicKMeans(k=args.k, seed=3).fit, docs)
    print("running INCR ...")
    run("INCR (Yang et al.)",
        INCRClusterer(threshold=0.25, window_size=600).fit, docs)
    print("running GAC ...")
    run("GAC (Yang et al.)",
        GACClusterer(target_clusters=args.k, bucket_size=120).fit, docs)
    print("running F2ICM ...")
    run("F2ICM (predecessor)", F2ICMClusterer(k=args.k).fit,
        stats.documents(), stats)

    rows = []
    for name, (result, seconds) in runs.items():
        evaluation = evaluate_clustering(result.clusters, truth)
        rows.append([
            name,
            sum(1 for c in result.clusters if c),
            evaluation.n_marked,
            f"{evaluation.micro_f1:.2f}",
            f"{evaluation.macro_f1:.2f}",
            f"{seconds:.2f}s",
        ])
    print()
    print(render_table(
        ["method", "clusters", "marked", "micro F1", "macro F1", "time"],
        rows,
    ))
    print("\nINCR/GAC may use many more clusters than K — their cluster "
          "count is data-driven,\nwhich flatters their F1; the paper's "
          "method answers a different question (recent topics\nunder a "
          "fixed-K budget).")


if __name__ == "__main__":
    main()
