#!/usr/bin/env python
"""On-line news monitor over the synthetic TDT2 stream.

Simulates the paper's deployment scenario: news arrives continuously,
and at the end of every week the incremental clusterer answers the
question the paper opens with — *"what are recent topics?"* — by
printing the current marked clusters with their dominant (ground-truth)
topics and top terms.

Uses the paper's on-line parameters (β=7 days, γ=14 days) so topics
visibly enter and leave the report as their news coverage waxes and
wanes.

Run:  python examples/news_stream_monitor.py          (~1 minute)
      python examples/news_stream_monitor.py --weeks 8
"""

import argparse
from collections import Counter

from repro import (
    ForgettingModel,
    IncrementalClusterer,
    SyntheticCorpusConfig,
    TDT2Generator,
    evaluate_clustering,
)


_GLOBAL_COUNTS = Counter()


def top_terms(repository, doc_ids, limit=4):
    """Terms most characteristic of the cluster: frequency in the
    cluster divided by corpus frequency (background words wash out)."""
    if not _GLOBAL_COUNTS:
        for doc in repository:
            _GLOBAL_COUNTS.update(doc.term_counts)
    totals = Counter()
    for doc_id in doc_ids:
        totals.update(repository.get(doc_id).term_counts)
    ranked = sorted(
        totals,
        key=lambda t: totals[t] ** 2 / (1.0 + _GLOBAL_COUNTS[t]),
        reverse=True,
    )
    return [repository.vocabulary.term(t) for t in ranked[:limit]]


def weekly_report(week, repository, clusterer, result, topic_names):
    truth = {
        doc_id: repository.get(doc_id).topic_id
        for doc_id in clusterer.statistics.doc_ids()
    }
    evaluation = evaluate_clustering(result.clusters, truth)
    print(f"\n=== week {week}: {clusterer.statistics.size} active docs, "
          f"{evaluation.n_marked} marked clusters, "
          f"{len(result.outliers)} outliers ===")
    shown = 0
    for cluster in sorted(evaluation.marked, key=lambda c: -c.size):
        members = result.clusters[cluster.cluster_id]
        name = topic_names.get(cluster.topic_id, cluster.topic_id)
        terms = ", ".join(top_terms(repository, members))
        print(f"  [{cluster.size:4d} docs] {name:40s} "
              f"p={cluster.precision:.2f}  terms: {terms}")
        shown += 1
        if shown >= 8:
            remaining = evaluation.n_marked - shown
            if remaining:
                print(f"  ... and {remaining} more marked clusters")
            break


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weeks", type=int, default=12,
                        help="number of weeks of stream to process")
    parser.add_argument("--k", type=int, default=16)
    args = parser.parse_args()

    print("generating the synthetic TDT2 news stream ...")
    generator = TDT2Generator(SyntheticCorpusConfig(seed=1998))
    repository = generator.generate()
    topic_names = {t.topic_id: t.name for t in generator.topics}

    model = ForgettingModel(half_life=7.0, life_span=14.0)
    clusterer = IncrementalClusterer(model, k=args.k, seed=0)

    for week in range(1, args.weeks + 1):
        start, end = (week - 1) * 7.0, week * 7.0
        batch = repository.between(start, end)
        if not batch:
            clusterer.statistics.advance_to(end)
            continue
        result = clusterer.process_batch(batch, at_time=end)
        weekly_report(week, repository, clusterer, result, topic_names)

    print("\ndone — note how early bursts (Pope visits Cuba, Superbowl) "
          "leave the report\nas their coverage ends, while sustained "
          "stories (Iraq, Lewinsky) persist.")


if __name__ == "__main__":
    main()
