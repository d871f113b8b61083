"""Fixtures and state-fingerprint helpers for the durability suite.

The acceptance property of :mod:`repro.durability`: after *any* crash,
``recover()`` lands on a state equal to some batch-prefix of the
uninterrupted run, and the newest surviving checkpoint is never corrupt
or truncated. "Equal" is exact for everything structural — the clock,
the active document ids, the assignment — and to 1e-12 *relative* for
the float aggregates (tdw, per-document weights): a restore decays each
weight in one ``λ^(now−T)`` step where the live run accumulated the
same product batch by batch, and floating-point powers compose only to
~1 ulp (the tolerance the seed round-trip tests already use).
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import pytest

from repro import (
    Checkpointer,
    Document,
    ForgettingModel,
    IncrementalClusterer,
    Vocabulary,
)
from repro.corpus.streams import iter_batches
from repro.corpus.synthetic import SyntheticCorpusConfig, TDT2Generator
from repro.durability.journal import EncodedLine
from tests.conftest import build_topic_repository

Batch = Tuple[float, List[Document]]
Fingerprint = Dict[str, Any]

#: Relative tolerance for restored float aggregates (see module doc).
REL_TOL = 1e-12


def build_batches(
    days: int = 8,
    topics: Tuple[str, ...] = ("sports", "finance"),
    seed: int = 3,
) -> Tuple[Vocabulary, List[Batch]]:
    """A small two-topic stream cut into daily ``(at_time, batch)``."""
    repo = build_topic_repository(
        days=days, docs_per_topic_per_day=2, topics=list(topics),
        seed=seed,
    )
    batches: List[Batch] = []
    for day in range(days):
        batch = [d for d in repo if int(d.timestamp) == day]
        batches.append((float(day + 1), batch))
    return repo.vocabulary, batches


def build_tdt2_batches(
    total_documents: int = 400, batch_days: float = 7.0
) -> Tuple[Vocabulary, List[Batch]]:
    """A small seeded TDT2-generator stream cut into ``(at_time, batch)``
    windows of ``batch_days`` — the many-topic counterpart of
    :func:`build_batches`."""
    repo = TDT2Generator(
        SyntheticCorpusConfig(seed=1998, total_documents=total_documents)
    ).generate()
    documents = sorted(repo.documents(), key=lambda d: (d.timestamp, d.doc_id))
    return repo.vocabulary, list(iter_batches(documents, batch_days))


def growing_batches(
    vocabulary: Vocabulary, batches: List[Batch], into: Vocabulary
) -> Iterator[Batch]:
    """``batches`` re-interned into ``into`` one batch at a time, as
    the iterator is advanced: the vocabulary grows between batches as a
    live ingest's does. New terms get ids in row order, and each row is
    then reversed, so a row with two new terms is not in id order."""
    for at_time, batch in batches:
        yield at_time, [
            Document(
                doc_id=doc.doc_id,
                timestamp=doc.timestamp,
                term_counts=dict(reversed([
                    (into.add(vocabulary.term(term_id)), count)
                    for term_id, count in doc.term_counts.items()
                ])),
                topic_id=doc.topic_id,
                source=doc.source,
                title=doc.title,
            )
            for doc in batch
        ]


class CadenceCheckpointer(Checkpointer):
    """A :class:`Checkpointer` that compacts on every ``every``-th batch
    since its last base instead of by size: the fixed cadence the suites
    use to put compactions at known batches (``every=1`` rewrites the
    base after each batch, a large ``every`` keeps every batch in the
    log). A test oracle of the compaction rule, not a production mode.
    """

    def __init__(self, *args: Any, every: int, **kwargs: Any) -> None:
        self.every = every
        super().__init__(*args, **kwargs)

    def _compaction_due(self, line: EncodedLine) -> bool:
        return self._since_checkpoint + 1 >= self.every


def make_clusterer(**kwargs: Any) -> IncrementalClusterer:
    """The durability suites' clusterer; ``kwargs`` are
    :class:`IncrementalClusterer` keywords."""
    model = ForgettingModel(half_life=7.0, life_span=14.0)
    defaults: Dict[str, Any] = {"k": 3, "seed": 1}
    defaults.update(kwargs)
    return IncrementalClusterer(model, **defaults)


def fingerprint(clusterer: IncrementalClusterer) -> Fingerprint:
    """Everything a prefix-equality assertion compares."""
    stats = clusterer.statistics
    return {
        "now": stats.now,
        "doc_ids": tuple(sorted(stats.doc_ids())),
        "assignment": dict(clusterer.assignments()),
        "weights": {d: stats.dw(d) for d in stats.doc_ids()},
        "tdw": stats.tdw,
    }


def reference_states(batches: List[Batch], **kwargs: Any) -> List[Fingerprint]:
    """Fingerprints of the uninterrupted run, one per batch prefix.

    ``reference_states(batches)[s]`` is the state after ``s`` batches;
    index 0 is the never-fed clusterer — recovery's sequence number
    indexes straight into this list.
    """
    clusterer = make_clusterer(**kwargs)
    states = [fingerprint(clusterer)]
    for at_time, batch in batches:
        clusterer.process_batch(batch, at_time=at_time)
        states.append(fingerprint(clusterer))
    return states


def assert_state_matches(
    recovered: IncrementalClusterer,
    reference: Fingerprint,
    rel_tol: float = REL_TOL,
) -> None:
    """Recovered state equals a reference prefix (see module doc)."""
    got = fingerprint(recovered)
    assert got["now"] == reference["now"]
    assert got["doc_ids"] == reference["doc_ids"]
    assert got["assignment"] == reference["assignment"]
    assert math.isclose(got["tdw"], reference["tdw"], rel_tol=rel_tol)
    for doc_id, weight in reference["weights"].items():
        assert math.isclose(
            got["weights"][doc_id], weight, rel_tol=rel_tol
        ), doc_id


def crash_images(
    workdir: Path,
    vocabulary: Vocabulary,
    batches: List[Batch],
    every: Optional[int] = 1,
    **kwargs: Any,
) -> List[Path]:
    """Run the stream under a :class:`CadenceCheckpointer` compacting
    every ``every`` batches (a :class:`Checkpointer`, compacting by
    size, with ``None``), photographing the on-disk artifacts after
    every commit.

    Each returned path is the checkpoint inside an independent copy of
    the run directory exactly as a crash at that instant would leave it
    (the run is never ``close()``-d, so no final flush ever happens).
    ``crash_images(...)[i]`` crashed right after batch ``i`` committed.
    """
    live = workdir / "live"
    live.mkdir(parents=True)
    clusterer = make_clusterer(**kwargs)
    path = live / "state.json"
    checkpointer = (
        Checkpointer(clusterer, vocabulary, path) if every is None
        else CadenceCheckpointer(clusterer, vocabulary, path, every=every)
    )
    clusterer.add_commit_hook(checkpointer.record_batch)
    images: List[Path] = []

    def snap() -> None:
        dest = workdir / f"crash{len(images)}"
        shutil.copytree(live, dest)
        images.append(dest / "state.json")

    snap()
    for at_time, batch in batches:
        clusterer.process_batch(batch, at_time=at_time)
        snap()
    return images


@pytest.fixture(scope="module")
def stream() -> Tuple[Vocabulary, List[Batch]]:
    return build_batches()


@pytest.fixture(scope="module")
def tdt2_stream() -> Tuple[Vocabulary, List[Batch]]:
    return build_tdt2_batches()


@pytest.fixture(scope="module")
def references(stream: Tuple[Vocabulary, List[Batch]]) -> List[Fingerprint]:
    _, batches = stream
    return reference_states(batches)
