"""Format version 2: term-id records, term lists and byte checksums.

* The id resolver rejects every malformed row before anything is
  interned.
* Recovery into a fresh vocabulary reproduces the live term ids and
  every active document's row, in row order.
* Mutated bytes of a checkpoint or a journal line either verify whole
  or are rejected, and recovery lands on a batch prefix either way.
* A due batch gets no journal line, and is counted; each
  ``checkpoint.save`` span says how many fragments it encoded.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Checkpointer, Document, Vocabulary, recover
from repro.durability.atomic import stamp
from repro.durability.journal import read_journal
from repro.durability.records import resolve_record
from repro.exceptions import CheckpointError, JournalError
from repro.obs import InMemoryRecorder
from repro.persistence import (
    load_checkpoint,
    read_checkpoint_state,
    save_checkpoint,
)

from tests.durability.conftest import (
    Batch,
    Fingerprint,
    assert_state_matches,
    build_batches,
    growing_batches,
    make_clusterer,
    reference_states,
)

DAYS = 6
TERMS = ["alpha", "beta", "gamma"]

#: ``(term_ids, counts)`` rows the resolver must refuse.
HOSTILE = {
    "negative-id": ([-1], [1]),
    "id-past-the-terms": ([10 ** 6], [1]),
    "bool-id": ([True], [1]),
    "float-id": ([1.0], [1]),
    "unequal-lengths": ([0, 1], [1]),
    "duplicate-id": ([2, 0, 2], [1, 1, 1]),
    "ids-not-a-list": ({"0": 1}, [1]),
}


def record(ids: Any, counts: Any) -> Dict[str, Any]:
    return {"doc_id": "d", "timestamp": 1.0, "topic_id": None,
            "source": None, "title": None,
            "term_ids": ids, "counts": counts}


def stream_with_new_terms(
    days: int,
) -> Tuple[Vocabulary, List[Batch]]:
    """The two-topic stream plus one document a day with a term no
    earlier day had (one of them non-ASCII), so every journal line
    carries a term delta."""
    vocabulary, batches = build_batches(days=days)
    for day, (at_time, batch) in enumerate(batches):
        batch.append(Document(
            doc_id=f"new-{day}", timestamp=at_time - 0.5,
            term_counts={
                vocabulary.add(f"fresh{day}"): 1,
                vocabulary.add(f"ünïcode{day}"): 2,
                vocabulary.add("goal"): 1,
            },
            topic_id="sports",
        ))
    return vocabulary, batches


def growing_references(
    source: Vocabulary, batches: List[Batch]
) -> List[Fingerprint]:
    return reference_states(
        list(growing_batches(source, batches, Vocabulary()))
    )


def run_images(
    workdir: Path, source: Vocabulary, batches: List[Batch], every: int
) -> Tuple[Vocabulary, List[Tuple[Path, List[str], Dict[str, Document]]]]:
    """Crash images of a growing-vocabulary run: after each commit, the
    run directory, the live vocabulary's terms and the active
    documents."""
    live = workdir / "live"
    live.mkdir(parents=True)
    vocabulary = Vocabulary()
    clusterer = make_clusterer()
    checkpointer = Checkpointer(
        clusterer, vocabulary, live / "state.json", every=every
    )
    clusterer.add_commit_hook(checkpointer.record_batch)
    images = []

    def snap() -> None:
        dest = workdir / f"crash{len(images)}"
        shutil.copytree(live, dest)
        active = {
            doc.doc_id: doc for doc in clusterer.statistics.documents()
        }
        images.append((dest / "state.json", list(vocabulary), active))

    snap()
    for at_time, batch in growing_batches(source, batches, vocabulary):
        clusterer.process_batch(batch, at_time=at_time)
        snap()
    checkpointer.abort()
    return vocabulary, images


class TestResolver:
    @pytest.mark.parametrize("row", HOSTILE.values(), ids=list(HOSTILE))
    def test_rejects(self, row):
        with pytest.raises((ValueError, TypeError)):
            resolve_record(record(*row), TERMS)

    def test_rejects_the_first_id_past_the_terms(self):
        resolve_record(record([len(TERMS) - 1], [1]), TERMS)
        with pytest.raises(ValueError, match="outside"):
            resolve_record(record([len(TERMS)], [1]), TERMS)

    def test_keeps_the_row_order(self):
        resolved = resolve_record(record([2, 0], [1, 3]), TERMS)
        assert list(resolved["terms"].items()) == [
            ("gamma", 1), ("alpha", 3),
        ]

    @pytest.mark.parametrize("row", HOSTILE.values(), ids=list(HOSTILE))
    def test_a_hostile_checkpoint_interns_nothing(self, tmp_path, row):
        vocabulary, batches = build_batches(days=2)
        clusterer = make_clusterer()
        for at_time, batch in batches:
            clusterer.process_batch(batch, at_time=at_time)
        path = tmp_path / "state.json"
        save_checkpoint(clusterer, vocabulary, path)
        state = json.loads(path.read_text(encoding="utf-8"))
        state["documents"][-1].update(term_ids=row[0], counts=row[1])
        del state["checksum"]  # a hand edit: loads unverified
        path.write_text(json.dumps(state), encoding="utf-8")

        target = Vocabulary(["unrelated"])
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path, target)
        assert list(target) == ["unrelated"]

    @pytest.mark.parametrize("terms", [
        ["alpha", "alpha"], ["alpha", 7], "alpha",
    ], ids=["repeated", "not-a-string", "not-a-list"])
    def test_a_hostile_term_list_is_rejected(self, tmp_path, terms):
        vocabulary, batches = build_batches(days=1)
        path = tmp_path / "state.json"
        save_checkpoint(make_clusterer(), vocabulary, path)
        state = json.loads(path.read_text(encoding="utf-8"))
        state["terms"] = terms
        del state["checksum"]
        path.write_text(json.dumps(state), encoding="utf-8")
        with pytest.raises(CheckpointError, match="malformed"):
            read_checkpoint_state(path)

    @pytest.mark.parametrize("row", HOSTILE.values(), ids=list(HOSTILE))
    def test_a_hostile_journal_line_is_a_discarded_tail(
        self, tmp_path, row
    ):
        vocabulary, batches = build_batches(days=3)
        path = tmp_path / "state.json"
        clusterer = make_clusterer()
        checkpointer = Checkpointer(clusterer, vocabulary, path, every=100)
        clusterer.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in batches[:2]:
            clusterer.process_batch(batch, at_time=at_time)
        checkpointer.abort()
        journal = checkpointer.journal_path
        # a validly stamped third line naming terms by bad ids
        line = json.dumps({
            "sequence": 3, "at_time": batches[2][0], "terms": [],
            "documents": [record(*row)],
        }, ensure_ascii=False)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write(stamp(line[:-1]) + "\n")

        contents = read_journal(journal)
        assert contents.truncated
        assert [entry.sequence for entry in contents.entries] == [1, 2]
        target = Vocabulary()
        recovery = recover(path, vocabulary=target)
        assert recovery.sequence == 2
        assert list(target) == list(vocabulary)


def test_a_tail_torn_inside_a_character_is_discarded(tmp_path):
    """An append cut inside a multi-byte UTF-8 character leaves bytes
    that do not decode; the reader discards them as a torn line (it
    used to raise ``UnicodeDecodeError`` out of ``recover()``)."""
    source, batches = stream_with_new_terms(3)
    _, images = run_images(tmp_path, source, batches, every=100)
    image = images[3][0]
    journal = image.with_name(image.name + ".journal")
    raw = journal.read_bytes()
    last = raw.rindex("ü".encode("utf-8"))
    assert last > raw.rindex(b"\n", 0, len(raw) - 1)  # in the last line
    journal.write_bytes(raw[:last + 1])

    contents = read_journal(journal)
    assert contents.truncated
    assert len(contents.entries) == 2
    recovery = recover(image)
    assert recovery.sequence == 2
    assert recovery.journal_truncated


class TestExactRecovery:
    def test_fresh_vocabulary_gets_the_live_ids_and_rows(self, tmp_path):
        """every=3: each image holds a checkpoint plus zero, one or two
        journal lines, each line with its own term delta."""
        source, batches = stream_with_new_terms(8)
        references = growing_references(source, batches)
        _, images = run_images(tmp_path, source, batches, every=3)
        for n, (image, live_terms, active) in enumerate(images):
            recovery = recover(image, vocabulary=Vocabulary())
            assert recovery.sequence == n
            assert recovery.replayed_batches == n % 3
            assert list(recovery.vocabulary) == live_terms
            statistics = recovery.clusterer.statistics
            assert set(statistics.doc_ids()) == set(active)
            for doc_id, live in active.items():
                restored = statistics.document(doc_id)
                assert np.array_equal(restored.term_ids, live.term_ids)
                assert np.array_equal(restored.counts, live.counts)
            assert_state_matches(recovery.clusterer, references[n])


class TestObservability:
    def test_due_batches_are_counted_and_saves_tagged(self, tmp_path):
        vocabulary, batches = build_batches(days=6)
        recorder = InMemoryRecorder()
        clusterer = make_clusterer()
        checkpointer = Checkpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=3,
            recorder=recorder,
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in batches:
            clusterer.process_batch(batch, at_time=at_time)
        checkpointer.abort()

        counters = recorder.counters()
        assert counters["durability.journal_batches"] == 4
        assert counters["durability.journal_skipped"] == 2
        assert len(read_journal(checkpointer.journal_path).entries) == 0
        # the journal encoded batches 1, 2, 4 and 5 into the shared
        # cache; a due checkpoint encodes only its own batch
        saves = recorder.select("checkpoint.save")
        assert [save.tags["new_docs"] for save in saves] == [
            0, len(batches[2][1]), len(batches[5][1]),
        ]
        assert [save.tags["docs"] for save in saves] == [
            0, sum(len(b) for _, b in batches[:3]),
            clusterer.statistics.size,
        ]


@pytest.fixture(scope="module")
def mutation_run(tmp_path_factory):
    source, batches = stream_with_new_terms(DAYS)
    references = growing_references(source, batches)
    _, checkpointed = run_images(
        tmp_path_factory.mktemp("every1"), source, batches, every=1
    )
    _, journaled = run_images(
        tmp_path_factory.mktemp("every100"), source, batches, every=100
    )
    return references, checkpointed[DAYS][0], journaled[DAYS][0]


def scratch_copy(image: Path) -> Path:
    dest = Path(tempfile.mkdtemp(prefix="repro-mutate-")) / "img"
    shutil.copytree(image.parent, dest)
    return dest / image.name


def mutate(raw: bytes, flips: List[Tuple[int, int]]) -> bytes:
    mutated = bytearray(raw)
    for position, bits in flips:
        mutated[position % len(raw)] ^= bits
    return bytes(mutated)


FLIPS = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(1, 255)),
    min_size=1, max_size=3,
)


class TestMutatedBytes:
    @given(flips=FLIPS)
    @settings(
        derandomize=True, max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_checkpoint(self, mutation_run, flips):
        references, image, _ = mutation_run
        image = scratch_copy(image)
        raw = image.read_bytes()
        original = read_checkpoint_state(image)
        image.write_bytes(mutate(raw, flips))
        try:
            state = read_checkpoint_state(image)
        except CheckpointError:
            state = None
        if state is not None:
            assert state == original  # verified whole
        recovery = recover(image)
        assert recovery.sequence == (DAYS if state else DAYS - 1)
        assert recovery.used_backup is (state is None)
        assert_state_matches(
            recovery.clusterer, references[recovery.sequence]
        )
        shutil.rmtree(image.parent.parent)

    @given(flips=FLIPS)
    @settings(
        derandomize=True, max_examples=100, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_journal(self, mutation_run, flips):
        references, _, image = mutation_run
        image = scratch_copy(image)
        journal = image.with_name(image.name + ".journal")
        raw = journal.read_bytes()
        header_end = raw.index(b"\n") + 1
        original = read_journal(journal).entries
        assert len(original) == DAYS
        # flip bytes of the lines, never of the header
        journal.write_bytes(raw[:header_end] + mutate(
            raw[header_end:], flips
        ))
        try:
            entries = read_journal(journal).entries
        except JournalError:  # pragma: no cover - the header is intact
            entries = ()
        assert entries == original[:len(entries)]
        recovery = recover(image)
        assert recovery.sequence == len(entries)
        assert_state_matches(
            recovery.clusterer, references[recovery.sequence]
        )
        shutil.rmtree(image.parent.parent)
