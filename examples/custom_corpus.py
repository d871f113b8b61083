#!/usr/bin/env python
"""Plugging your own corpus in: ingest -> cluster -> checkpoint.

Everything the other examples do on the synthetic TDT2 stream works on
any timestamped text: this script writes a small JSONL corpus (stand-in
for your export), re-loads it, clusters incrementally, summarises each
cluster with its medoid story, and checkpoints the state for the next
run.

Run:  python examples/custom_corpus.py
"""

import random
import tempfile
from pathlib import Path

from repro import (
    DocumentRepository,
    ForgettingModel,
    IncrementalClusterer,
    Vocabulary,
    load_jsonl,
    replay,
    save_checkpoint,
    save_jsonl,
)
from repro.core import label_clustering, medoid_document

STORIES = {
    "ferry": "ferry capsized rescue harbor passengers lifeboats crew "
             "coastguard survivors storm",
    "budget": "budget parliament deficit spending taxes austerity "
              "finance minister vote coalition",
    "comet": "comet telescope astronomers tail observation brightness "
             "orbit perihelion sky viewing",
}


DETAIL_WORDS = [
    f"{prefix}{suffix}"
    for prefix in ("north", "south", "east", "west", "central",
                   "upper", "lower", "grand")
    for suffix in ("bridge", "valley", "square", "station", "quarter",
                   "island", "district", "avenue", "harbor", "ridge")
]


def write_demo_corpus(path: Path) -> None:
    """Simulate an export: 3 stories over 6 days.

    Each day's article mixes the story's core vocabulary with
    day-specific details.
    """
    rng = random.Random(42)
    repo = DocumentRepository()
    serial = 0
    for day in range(6):
        for story, vocabulary in STORIES.items():
            words = rng.choices(vocabulary.split(), k=32)
            words += rng.sample(DETAIL_WORDS, 8)
            words += rng.choices("city night report official".split(), k=4)
            rng.shuffle(words)
            repo.add_text(f"s{serial:03d}", day + 0.25, " ".join(words),
                          topic_id=story, source="WIRE-A")
            serial += 1
    save_jsonl(repo.documents(), repo.vocabulary, path)
    print(f"wrote {repo.size} documents to {path}")


def main():
    workdir = Path(tempfile.mkdtemp(prefix="repro_demo_"))
    corpus_path = workdir / "corpus.jsonl"
    checkpoint_path = workdir / "clusterer.json"

    write_demo_corpus(corpus_path)

    # 1. load into a fresh vocabulary
    vocabulary = Vocabulary()
    documents = load_jsonl(corpus_path, vocabulary)

    # 2. incremental clustering, one batch per day
    model = ForgettingModel(half_life=3.0, life_span=10.0)
    clusterer = IncrementalClusterer(model, k=3, seed=0)
    result = replay(clusterer, documents, batch_days=1.0)
    assert result is not None  # the demo corpus is never empty
    print(f"\nclustered: {result.summary()}")

    # 3. label each cluster and show its medoid story
    active = clusterer.statistics.documents()
    by_id = {d.doc_id: d for d in active}
    labels = label_clustering(clusterer.view(), vocabulary)
    for label in sorted(labels, key=lambda l: -l.size):
        members = [
            by_id[m] for m in result.clusters[label.cluster_id]
            if m in by_id
        ]
        medoid = medoid_document(members, clusterer.statistics)
        print(f"  [{label.size:2d} docs] {label}"
              f"   (medoid: {medoid.doc_id}, topic {medoid.topic_id})")

    # 4. persist for the next run
    save_checkpoint(clusterer, vocabulary, checkpoint_path)
    print(f"\ncheckpoint saved to {checkpoint_path}")
    print("next run: load_checkpoint(path) and keep feeding batches")


if __name__ == "__main__":
    main()
