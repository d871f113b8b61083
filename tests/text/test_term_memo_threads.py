"""One pipeline, one tiny memo, many threads and no lock.

A service shares its pipeline between the producer, which tokenizes
documents as they arrive, and reader threads answering text
``assign`` queries. The memo is emptied whenever it fills, so with a
tiny bound every thread keeps clearing and refilling it under the
others. No thread may raise, and every answer must equal the
per-token oracle's.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

from repro import ClusterSnapshot
from repro.api import build_clusterer
from repro.corpus.repository import DocumentRepository
from repro.text import MemoizedStemmer, TextPipeline
from tests.oracles.text import ReferencePipeline
from tests.text.conftest import EDGE_TEXTS, generated_texts

PRODUCERS = 3
READERS = 3
PASSES = 2
JOIN_TIMEOUT_S = 120.0


def test_shared_pipeline_under_forced_switching():
    texts = generated_texts(7, total=150)
    pipeline = TextPipeline(stemmer=MemoizedStemmer(maxsize=4))
    oracle = ReferencePipeline()

    repository = DocumentRepository(pipeline=pipeline)
    clusterer = build_clusterer(k=4, seed=1, half_life=7.0,
                                life_span=14.0)
    documents = [repository.add_text(f"d{i}", i / 10.0, text)
                 for i, text in enumerate(texts[:100])]
    clusterer.process_batch(documents, at_time=16.0)
    snapshot = ClusterSnapshot.from_clusterer(
        1, clusterer, vocabulary=repository.vocabulary, pipeline=pipeline
    )
    reference = dataclasses.replace(snapshot, pipeline=oracle)

    # short bodies: with so small a memo nearly every token is stemmed
    work = EDGE_TEXTS + [text[:300] for text in texts]
    queries = EDGE_TEXTS + [text[:300] for text in texts[100:]]
    expected_counts = [list(oracle.term_frequencies(t).items())
                       for t in work]
    expected_answers = [reference.assign(q) for q in queries]
    assert any(not answer.is_outlier for answer in expected_answers)

    mismatches = []
    errors = []
    barrier = threading.Barrier(PRODUCERS + READERS, timeout=60)

    def producer(offset: int) -> None:
        barrier.wait()
        for _ in range(PASSES):
            for i in range(len(work)):
                index = (i + offset) % len(work)
                got = list(pipeline.term_frequencies(work[index]).items())
                if got != expected_counts[index]:
                    mismatches.append(("producer", index))

    def reader(offset: int) -> None:
        barrier.wait()
        for _ in range(PASSES):
            for i in range(len(queries)):
                index = (i + offset) % len(queries)
                if snapshot.assign(queries[index]) != expected_answers[index]:
                    mismatches.append(("reader", index))

    def guarded(body, offset):
        def run() -> None:
            try:
                body(offset)
            except BaseException as error:  # a KeyError from a race too
                errors.append(error)
        return run

    threads = [
        threading.Thread(target=guarded(producer, 37 * i), daemon=True)
        for i in range(PRODUCERS)
    ] + [
        threading.Thread(target=guarded(reader, 11 * i), daemon=True)
        for i in range(READERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(0.0, JOIN_TIMEOUT_S
                                    - (time.monotonic() - start)))
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert mismatches == []
    # each thread can insert once between another's full-check and insert
    memo = pipeline.stemmer.term_memo(pipeline.tokenizer, pipeline.stopwords)
    assert len(memo) <= 4 + len(threads)
