#!/usr/bin/env python
"""Topic threads: following stories across clustering snapshots.

The paper produces an independent clustering per window; this example
adds the natural next step — linking clusters of consecutive snapshots
into *threads* by representative similarity (`repro.TopicTracker`), so
each story has a birth date, a lifetime, and a week-by-week size curve.

Run:  python examples/topic_tracking.py            (~1 minute)
      python examples/topic_tracking.py --weeks 16
"""

import argparse
from collections import Counter

from repro import (
    ForgettingModel,
    IncrementalClusterer,
    SyntheticCorpusConfig,
    TDT2Generator,
    TopicTracker,
)


def dominant_topic(repository, doc_ids):
    counts = Counter(
        repository.get(doc_id).topic_id for doc_id in doc_ids
        if doc_id in repository
    )
    if not counts:
        return None
    return counts.most_common(1)[0][0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weeks", type=int, default=12)
    parser.add_argument("--k", type=int, default=12)
    args = parser.parse_args()

    print("generating the synthetic TDT2 news stream ...")
    generator = TDT2Generator(SyntheticCorpusConfig(seed=1998))
    repository = generator.generate()
    topic_names = {t.topic_id: t.name for t in generator.topics}

    model = ForgettingModel(half_life=7.0, life_span=21.0)
    clusterer = IncrementalClusterer(model, k=args.k, seed=0)
    tracker = TopicTracker(threshold=0.25, patience=1)

    thread_members = {}  # thread id -> latest member ids
    for week in range(1, args.weeks + 1):
        start, end = (week - 1) * 7.0, week * 7.0
        batch = repository.between(start, end)
        if not batch:
            clusterer.statistics.advance_to(end)
            continue
        result = clusterer.process_batch(batch, at_time=end)
        snapshot = tracker.update(clusterer.view(), at_time=end)
        for cluster_id, thread_id in snapshot.cluster_to_thread.items():
            thread_members[thread_id] = result.clusters[cluster_id]
        events = []
        if snapshot.born:
            events.append(f"born: {list(snapshot.born)}")
        if snapshot.retired:
            events.append(f"retired: {list(snapshot.retired)}")
        print(f"week {week:2d}: {len(snapshot.continued)} threads "
              f"continue; {' '.join(events) if events else 'no changes'}")

    print("\nthread summary (longest-lived first):")
    threads = sorted(
        tracker.threads.values(), key=lambda t: -len(t)
    )
    for thread in threads[:12]:
        members = thread_members.get(thread.thread_id, ())
        topic = dominant_topic(repository, members)
        name = topic_names.get(topic, topic or "?")
        sizes = "→".join(str(e.size) for e in thread.events[-6:])
        status = "retired" if thread.retired else "active"
        print(f"  thread {thread.thread_id:3d} [{status:7s}] "
              f"weeks {thread.born_at / 7:.0f}-{thread.last_seen / 7:.0f} "
              f"({len(thread)} snapshots)  sizes {sizes:24s} {name}")


if __name__ == "__main__":
    main()
