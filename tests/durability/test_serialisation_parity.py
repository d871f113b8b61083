"""Checkpoint and journal bytes equal the dict-then-``json.dumps`` oracle.

The library composes both files (format version 2) from fragments it
encodes once per document and once per term
(:mod:`repro.durability.records`). File order carries meaning —
recovery interns terms and rebuilds the assignment in file order — so
the composition must be byte-identical to the oracle in
:mod:`tests.oracles.serialisation`, checksum included, after every
batch, on every path that fills or reuses the cache. The vocabulary
grows between batches, as a live ingest's does, so journal lines carry
term deltas; with ``every=3`` a batch whose checkpoint is due has no
journal line.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

import pytest

from repro import Checkpointer, Document, IncrementalClusterer, recover
from repro.durability.atomic import backup_path
from repro.durability.records import RecordCache
from repro.exceptions import CheckpointError
from repro.persistence import save_checkpoint
from repro.text.vocabulary import Vocabulary

from tests.durability.conftest import (
    Batch,
    build_batches,
    growing_batches,
    make_clusterer,
)
from tests.oracles.serialisation import (
    checkpoint_text,
    journal_header,
    journal_line,
)

DAYS = 20
#: Index of the batch that re-feeds an expired id.
REFED = 16


@pytest.fixture(scope="module")
def stream() -> Tuple[Vocabulary, List[Batch]]:
    """Twenty days (beyond the 14-day life span, so documents expire).
    A day-1 document expires with batch 16; its id comes back with new,
    non-ASCII content in batch 17, before the next ``every=3``
    checkpoint has pruned the old fragments."""
    vocabulary, batches = build_batches(days=DAYS)
    first = batches[1][1][0]
    refed = Document(
        doc_id=first.doc_id,
        timestamp=16.5,
        term_counts={
            vocabulary.add("éclipse"): 3, vocabulary.add("солнце"): 1,
        },
        topic_id="eclipse",
        title="Éclipse totale — 日食",
    )
    at_time, batch = batches[REFED]
    batches[REFED] = (at_time, batch + [refed])
    return vocabulary, batches


class OracleFiles:
    """What the checkpoint, its ``.bak`` and the journal must hold,
    tracked with the oracle writer beside a live :class:`Checkpointer`."""

    def __init__(
        self,
        clusterer: IncrementalClusterer,
        vocabulary: Vocabulary,
        path: Path,
        every: int,
        sequence: int = 0,
    ) -> None:
        self.clusterer = clusterer
        self.vocabulary = vocabulary
        self.path = path
        self.every = every
        self.sequence = sequence
        self.checkpointer = Checkpointer(
            clusterer, vocabulary, path, every=every, sequence=sequence
        )
        clusterer.add_commit_hook(self.checkpointer.record_batch)
        self.backup: Optional[str] = None
        self._checkpointed()

    def _checkpointed(self) -> None:
        self.checkpoint = checkpoint_text(
            self.clusterer, self.vocabulary, self.sequence
        )
        self.journal = journal_header(
            self.sequence, self.clusterer.statistics.now
        )
        self.since = 0
        # terms the journal's lines have carried since its header
        self.terms = 0

    def feed(self, at_time: float, batch: List[Document]) -> None:
        self.clusterer.process_batch(batch, at_time=at_time)
        self.sequence += 1
        self.since += 1
        if self.since >= self.every:
            # due: checkpointed, and no journal line
            self.backup = self.checkpoint
            self._checkpointed()
            # the cache was rebuilt from the active set
            assert len(self.checkpointer._cache) == (
                self.clusterer.statistics.size
            )
        else:
            size = len(self.vocabulary)
            self.journal += journal_line(
                self.sequence, at_time,
                [self.vocabulary.term(t) for t in range(self.terms, size)],
                batch,
            )
            self.terms = size
        self.assert_on_disk()

    def feed_all(self, batches: Iterable[Batch]) -> None:
        for at_time, batch in batches:
            self.feed(at_time, batch)

    def close(self) -> None:
        self.checkpointer.close()
        if self.since:
            self.backup = self.checkpoint
            self._checkpointed()
        self.assert_on_disk()

    def assert_on_disk(self) -> None:
        assert self.path.read_bytes() == self.checkpoint.encode("utf-8")
        assert self.checkpointer.journal_path.read_bytes() == (
            self.journal.encode("utf-8")
        )
        if self.backup is not None:
            assert backup_path(self.path).read_bytes() == (
                self.backup.encode("utf-8")
            )


@pytest.mark.parametrize("every", [1, 3])
def test_every_batch_matches_the_oracle(stream, tmp_path, every):
    source, batches = stream
    vocabulary = Vocabulary()
    files = OracleFiles(
        make_clusterer(), vocabulary, tmp_path / "state.json", every
    )
    files.assert_on_disk()
    files.feed_all(growing_batches(source, batches, vocabulary))
    refed = batches[REFED][1][-1]
    assert files.clusterer.statistics.document(refed.doc_id).title == (
        refed.title
    )
    files.close()


@pytest.mark.parametrize("every", [1, 3])
def test_cold_cache_over_a_recovered_clusterer(stream, tmp_path, every):
    source, batches = stream
    vocabulary = Vocabulary()
    fed = growing_batches(source, batches, vocabulary)
    path = tmp_path / "state.json"
    files = OracleFiles(make_clusterer(), vocabulary, path, every)
    files.feed_all(islice(fed, 10))
    files.checkpointer.abort()

    recovered = recover(path, vocabulary=vocabulary)
    assert recovered.sequence == 10
    files = OracleFiles(
        recovered.clusterer, vocabulary, path, every,
        sequence=recovered.sequence,
    )
    files.assert_on_disk()
    files.feed_all(fed)
    files.close()


def test_a_fresh_vocabulary_recovers_the_live_bytes(stream, tmp_path):
    """Recovered into a fresh vocabulary, the state writes the very
    checkpoint the live run wrote, and the run goes on byte for byte."""
    source, batches = stream
    live = Vocabulary()
    fed = growing_batches(source, batches, live)
    path = tmp_path / "state.json"
    files = OracleFiles(make_clusterer(), live, path, every=3)
    files.feed_all(islice(fed, 11))  # checkpoint at 9, lines 10 and 11
    files.checkpointer.abort()

    recovered = recover(path)
    assert recovered.sequence == 11
    assert recovered.replayed_batches == 2
    assert list(recovered.vocabulary) == list(live)
    assert checkpoint_text(
        recovered.clusterer, recovered.vocabulary, 11
    ) == checkpoint_text(files.clusterer, live, 11)
    files = OracleFiles(
        recovered.clusterer, recovered.vocabulary, path, every=3,
        sequence=11,
    )
    files.feed_all(growing_batches(
        source, batches[11:], recovered.vocabulary
    ))
    files.close()


@pytest.mark.parametrize("sequence", [None, 7])
def test_public_save_checkpoint_without_a_cache(stream, tmp_path, sequence):
    vocabulary, batches = stream
    clusterer = make_clusterer()
    for at_time, batch in batches:
        clusterer.process_batch(batch, at_time=at_time)
    path = tmp_path / "state.json"
    save_checkpoint(clusterer, vocabulary, path, sequence=sequence)
    assert path.read_bytes() == checkpoint_text(
        clusterer, vocabulary, sequence
    ).encode("utf-8")


def test_a_returning_id_is_re_encoded(stream):
    vocabulary, batches = stream
    cache = RecordCache(vocabulary)
    terms = len(vocabulary)
    first = batches[1][1][0]
    refed = batches[REFED][1][-1]
    assert refed.doc_id == first.doc_id
    before = cache.fragments([first], terms)
    assert cache.fragments([first], terms) == before
    assert cache.encoded == 1
    after = cache.fragments([refed], terms)
    assert after != before
    assert cache.retain([refed], terms) == after
    assert len(cache) == 1
    assert cache.encoded == 2


def test_a_cache_over_another_vocabulary_is_refused(stream, tmp_path):
    vocabulary, _ = stream
    with pytest.raises(CheckpointError, match="another vocabulary"):
        save_checkpoint(
            make_clusterer(), vocabulary, tmp_path / "state.json",
            cache=RecordCache(Vocabulary()),
        )


def test_a_term_id_beyond_the_vocabulary_is_refused(stream, tmp_path):
    vocabulary, batches = stream
    clusterer = make_clusterer()
    clusterer.process_batch(batches[0][1], at_time=batches[0][0])
    with pytest.raises(CheckpointError, match="wrong vocabulary"):
        save_checkpoint(
            clusterer, Vocabulary(["only"]), tmp_path / "state.json"
        )
