"""Format version 3: packed rows, recorded assignments, a log compacted
by size.

* The row resolver and the assignment check reject every malformed
  value before anything is interned or changed: a base carrying one is
  a ``CheckpointError``, a log line carrying one ends the intact prefix.
* Mutated bytes and torn tails of a base or a log either verify whole
  or are rejected, and recovery lands on a batch prefix either way.
* Recovery re-applies the log without K-means and returns the live
  assignment, in the live order.
* A base written after the clock passed a document's life span, with
  no expiry since, loads with that document's assignment dropped.
* Under the size rule the log is never larger than the base, and a
  batch whose line would outgrow the base compacts instead.
* A journal header carries no ``base_now``; one that does, as earlier
  writers of this version wrote it, still recovers.
* Recovery into a fresh vocabulary reproduces the live term ids and
  every active document's row, in row order, when each log line
  carries its own term delta (non-ASCII terms included); mutated bytes
  of such a run verify whole or are rejected too.
* A batch the rule compacts for gets no log line, and is counted; each
  ``checkpoint.save`` span says how many fragments it encoded.
"""

from __future__ import annotations

import base64
import json
import shutil
import struct
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Checkpointer, Document, Vocabulary, recover
from repro.durability.journal import read_journal
from repro.durability.records import resolve_record
from repro.exceptions import CheckpointError, ConfigurationError, JournalError
from repro.obs import InMemoryRecorder, use_recorder
from repro.persistence import (
    load_checkpoint,
    read_checkpoint_state,
    save_checkpoint,
)

from tests.durability.conftest import (
    Batch,
    CadenceCheckpointer,
    Fingerprint,
    assert_state_matches,
    build_batches,
    crash_images,
    growing_batches,
    make_clusterer,
    reference_states,
)
from tests.oracles.serialisation import journal_line, stamped

DAYS = 6
TERMS = ["alpha", "beta", "gamma"]


def packed(*values: int) -> str:
    return base64.b64encode(
        struct.pack(f"<{len(values)}i", *values)
    ).decode("ascii")


#: ``row`` values the resolver must refuse, over the three ``TERMS``.
HOSTILE_ROWS = {
    "malformed-base64": "not base64!",
    "non-ascii": "AQAAAA€=",
    "not-a-string": [0, 1],
    "odd-byte-length": base64.b64encode(b"\x00" * 12).decode("ascii"),
    "id-out-of-range": packed(10 ** 6, 1),
    "negative-id": packed(-1, 1),
    "repeated-id": packed(2, 2, 1, 1),
    "zero-count": packed(0, 0),
    "negative-count": packed(1, -2),
}


def record(row: Any) -> Dict[str, Any]:
    return {"doc_id": "d", "timestamp": 1.0, "topic_id": None,
            "source": None, "title": None, "row": row}


def fed_clusterer(batches: List[Batch], days: int):
    clusterer = make_clusterer()
    for at_time, batch in batches[:days]:
        clusterer.process_batch(batch, at_time=at_time)
    return clusterer


def edit_checkpoint(path: Path, edit) -> None:
    """Apply ``edit`` to the checkpoint's JSON, as a hand edit does:
    without a checksum, so it loads unverified."""
    state = json.loads(path.read_text(encoding="utf-8"))
    edit(state)
    del state["checksum"]
    path.write_text(json.dumps(state), encoding="utf-8")


def logged_run(path: Path, batches: List[Batch], vocabulary: Vocabulary):
    """Two logged batches and a crash: the base holds none of them.
    Returns the log."""
    clusterer = make_clusterer()
    checkpointer = CadenceCheckpointer(clusterer, vocabulary, path, every=100)
    clusterer.add_commit_hook(checkpointer.record_batch)
    for at_time, batch in batches[:2]:
        clusterer.process_batch(batch, at_time=at_time)
    checkpointer.abort()
    return checkpointer.journal_path


def append_line(journal: Path, line: Dict[str, Any]) -> None:
    """Append ``line``, validly stamped, as the log's next line."""
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write(stamped(line) + "\n")


def third_line(batches: List[Batch], **members: Any) -> Dict[str, Any]:
    """What the writer would log for batch 3 after the two of
    :func:`logged_run` (whose first line carried every term), as a
    dict, with ``members`` replaced."""
    at_time, batch = batches[2]
    line = json.loads(journal_line(
        3, at_time, [], batch, fed_clusterer(batches, 3)
    ))
    del line["checksum"]
    line.update(members)
    return line


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
    checkpointer = CadenceCheckpointer(
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
    @pytest.mark.parametrize(
        "row", HOSTILE_ROWS.values(), ids=list(HOSTILE_ROWS)
    )
    def test_rejects(self, row):
        with pytest.raises(ValueError):
            resolve_record(record(row), TERMS)

    @pytest.mark.parametrize("shape", [["row"], "row"], ids=["list", "string"])
    def test_rejects_a_record_that_is_not_an_object(self, shape):
        with pytest.raises(ValueError, match="object"):
            resolve_record(shape, TERMS)

    def test_rejects_a_member_it_does_not_know(self):
        with pytest.raises(ValueError, match="members"):
            resolve_record(dict(record(packed(0, 1)), counts=[1]), TERMS)

    def test_keeps_the_row_order(self):
        resolved = resolve_record(record(packed(2, 0, 1, 3)), TERMS)
        assert list(resolved["terms"].items()) == [
            ("gamma", 1), ("alpha", 3),
        ]

    @pytest.mark.parametrize(
        "row", HOSTILE_ROWS.values(), ids=list(HOSTILE_ROWS)
    )
    def test_a_hostile_base_interns_nothing(self, tmp_path, row):
        vocabulary, batches = build_batches(days=2)
        path = tmp_path / "state.json"
        save_checkpoint(fed_clusterer(batches, 2), vocabulary, path)
        edit_checkpoint(
            path, lambda state: state["documents"][-1].update(row=row)
        )
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

    @pytest.mark.parametrize(
        "row", HOSTILE_ROWS.values(), ids=list(HOSTILE_ROWS)
    )
    def test_a_hostile_log_line_is_a_discarded_tail(self, tmp_path, row):
        vocabulary, batches = build_batches(days=3)
        path = tmp_path / "state.json"
        journal = logged_run(path, batches, vocabulary)
        line = third_line(batches)
        line["documents"][-1]["row"] = row
        append_line(journal, line)

        contents = read_journal(journal)
        assert contents.truncated
        assert [entry.sequence for entry in contents.entries] == [1, 2]
        target = Vocabulary()
        recovery = recover(path, vocabulary=target)
        assert recovery.sequence == 2
        assert list(target) == list(vocabulary)

    def test_an_intact_third_line_is_read(self, tmp_path):
        """The control of the two tests above: the same line, unedited,
        is the log's third batch."""
        vocabulary, batches = build_batches(days=3)
        path = tmp_path / "state.json"
        journal = logged_run(path, batches, vocabulary)
        append_line(journal, third_line(batches))
        recovery = recover(path)
        assert recovery.sequence == 3
        assert not recovery.journal_truncated
        assert_state_matches(
            recovery.clusterer, reference_states(batches)[3]
        )


def assignment_edits(k: int) -> Dict[str, Any]:
    """``clusters -> packed assignment`` edits that no active set
    accepts."""
    def set_first(clusters: List[int], value: int) -> List[int]:
        return [value] + clusters[1:]

    return {
        "one-row-short": lambda c: packed(*c[:-1]),
        "one-row-long": lambda c: packed(*c, -1),
        "cluster-past-k": lambda c: packed(*set_first(c, k)),
        "cluster-below-none": lambda c: packed(*set_first(c, -2)),
    }


ASSIGNMENT_EDITS = list(assignment_edits(3))


def unpacked(text: str) -> List[int]:
    raw = base64.b64decode(text)
    return list(struct.unpack(f"<{len(raw) // 4}i", raw))


class TestAssignment:
    @pytest.mark.parametrize("name", ASSIGNMENT_EDITS)
    def test_a_base_whose_assignment_does_not_fit_is_refused(
        self, tmp_path, name
    ):
        vocabulary, batches = build_batches(days=3)
        clusterer = fed_clusterer(batches, 3)
        path = tmp_path / "state.json"
        save_checkpoint(clusterer, vocabulary, path)
        change = assignment_edits(clusterer.kmeans.k)[name]
        edit_checkpoint(path, lambda state: state.update(
            assignment=change(unpacked(state["assignment"]))
        ))
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)

    @pytest.mark.parametrize("assignment", [
        "not base64!", base64.b64encode(b"\x00" * 6).decode("ascii"), 7,
    ], ids=["malformed-base64", "odd-byte-length", "not-a-string"])
    def test_a_base_whose_assignment_is_not_packed_is_refused(
        self, tmp_path, assignment
    ):
        vocabulary, batches = build_batches(days=2)
        path = tmp_path / "state.json"
        save_checkpoint(fed_clusterer(batches, 2), vocabulary, path)
        edit_checkpoint(path, lambda state: state.update(
            assignment=assignment
        ))
        with pytest.raises(CheckpointError, match="malformed"):
            read_checkpoint_state(path)

    @pytest.mark.parametrize("name", ASSIGNMENT_EDITS)
    def test_a_log_line_whose_assignment_does_not_fit_ends_the_prefix(
        self, tmp_path, name
    ):
        vocabulary, batches = build_batches(days=3)
        path = tmp_path / "state.json"
        journal = logged_run(path, batches, vocabulary)
        line = third_line(batches)
        change = assignment_edits(make_clusterer().kmeans.k)[name]
        line["assignment"] = change(unpacked(line["assignment"]))
        append_line(journal, line)

        assert len(read_journal(journal).entries) == 3
        recovery = recover(path)
        assert recovery.sequence == 2
        assert recovery.journal_truncated
        assert_state_matches(
            recovery.clusterer, reference_states(batches)[2]
        )

    def test_a_log_line_whose_assignment_is_not_packed_is_a_torn_tail(
        self, tmp_path
    ):
        vocabulary, batches = build_batches(days=3)
        path = tmp_path / "state.json"
        journal = logged_run(path, batches, vocabulary)
        append_line(journal, third_line(
            batches, assignment="not base64!"
        ))
        contents = read_journal(journal)
        assert contents.truncated
        assert len(contents.entries) == 2

    def test_a_log_line_without_an_assignment_is_a_torn_tail(
        self, tmp_path
    ):
        """A version-3 line always records its assignment; one without
        is not replayed through a fit."""
        vocabulary, batches = build_batches(days=3)
        path = tmp_path / "state.json"
        journal = logged_run(path, batches, vocabulary)
        line = third_line(batches)
        del line["assignment"]
        append_line(journal, line)
        contents = read_journal(journal)
        assert contents.truncated
        assert len(contents.entries) == 2
        assert recover(path).sequence == 2

    def test_a_log_line_the_statistics_refuse_raises(self, tmp_path):
        """Only an assignment that does not fit ends the intact prefix:
        an intact line whose documents the statistics refuse (here the
        second line's, already active) raises, as it does through
        ``process_batch``."""
        vocabulary, batches = build_batches(days=3)
        path = tmp_path / "state.json"
        journal = logged_run(path, batches, vocabulary)
        second = json.loads(journal.read_text().splitlines()[2])
        append_line(journal, third_line(
            batches, documents=second["documents"]
        ))
        with pytest.raises(ConfigurationError, match="already tracked"):
            recover(path)


class TestExpiryBehindTheClock:
    """An empty window advances the clock with no expiry, so a base can
    be written after a document's life span has passed: its assignment
    is recorded over the documents it holds, and the expired ones'
    entries are dropped on load."""

    def test_a_base_past_a_life_span_loads_and_recovers(self, tmp_path):
        vocabulary, batches = build_batches(days=DAYS)
        path = tmp_path / "state.json"
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(clusterer, vocabulary, path, every=100)
        clusterer.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in batches:
            clusterer.process_batch(batch, at_time=at_time)
        clusterer.statistics.advance_to(batches[-1][0] + 10.0)
        checkpointer.close()  # the final base, at the advanced clock
        assert read_checkpoint_state(path)["now"] == batches[-1][0] + 10.0

        probe = clusterer.statistics.clone()
        expired = {doc.doc_id for doc in probe.expire()}
        assert 0 < len(expired) < clusterer.statistics.size
        live = list(clusterer.assignments().items())
        kept = [(d, c) for d, c in live if d not in expired]
        assert len(kept) < len(live)

        recorder = InMemoryRecorder()
        with use_recorder(recorder):
            loaded, _ = load_checkpoint(path)
        assert list(loaded.assignments().items()) == kept
        assert sorted(loaded.statistics.doc_ids()) == sorted(
            probe.doc_ids()
        )
        assert recorder.total("checkpoint.assignments_dropped") == (
            len(live) - len(kept)
        )

        recovery = recover(path)
        assert not recovery.used_backup
        assert recovery.sequence == DAYS
        assert list(recovery.clusterer.assignments().items()) == kept

    def test_its_assignment_is_checked_before_the_expiry(self, tmp_path):
        """One entry per document of the file, expiring or not: the
        survivors' count is not accepted."""
        vocabulary, batches = build_batches(days=DAYS)
        clusterer = fed_clusterer(batches, DAYS)
        clusterer.statistics.advance_to(batches[-1][0] + 10.0)
        path = tmp_path / "state.json"
        save_checkpoint(clusterer, vocabulary, path)
        probe = clusterer.statistics.clone()
        probe.expire()
        survivors = set(probe.doc_ids())
        edit_checkpoint(path, lambda state: state.update(assignment=packed(*(
            cluster for document, cluster in zip(
                state["documents"], unpacked(state["assignment"])
            )
            if document["doc_id"] in survivors
        ))))
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)


class TestRecoveryWithoutAFit:
    def test_no_kmeans_runs_and_the_live_assignment_returns(self, tmp_path):
        vocabulary, batches = build_batches(days=DAYS)
        path = tmp_path / "state.json"
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(clusterer, vocabulary, path, every=100)
        clusterer.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in batches:
            clusterer.process_batch(batch, at_time=at_time)
        checkpointer.abort()

        recorder = InMemoryRecorder()
        with use_recorder(recorder):
            recovery = recover(path, recorder=recorder)
        assert recovery.replayed_batches == DAYS
        assert recorder.select("kmeans.fit") == []
        assert recorder.select("kmeans.pass") == []
        # the live assignment, in the live order: the next warm start's
        assert list(recovery.clusterer.assignments().items()) == list(
            clusterer.assignments().items()
        )
        assert recovery.clusterer.last_result is None

    def test_a_recovered_run_goes_on_as_the_live_one(self, tmp_path):
        """The restored order is the one the live run loads its next
        warm start in, so both runs fit the next batches alike."""
        vocabulary, batches = build_batches(days=10)
        path = tmp_path / "state.json"
        crashed = make_clusterer()
        checkpointer = CadenceCheckpointer(crashed, vocabulary, path, every=100)
        crashed.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in batches[:6]:
            crashed.process_batch(batch, at_time=at_time)
        checkpointer.abort()
        restored = recover(path).clusterer
        live = fed_clusterer(batches, 6)
        for at_time, batch in batches[6:]:
            want = live.process_batch(batch, at_time=at_time)
            got = restored.process_batch(batch, at_time=at_time)
            assert got.clusters == want.clusters
            assert got.outliers == want.outliers


class TestSizeRule:
    def test_the_log_never_outgrows_the_base(self, tmp_path):
        """Each batch's would-be line (the oracle's bytes) decides: it is
        logged when the log plus the line stays within the base, and
        otherwise the base is rewritten and the log restarted."""
        source, batches = build_batches(days=30)
        vocabulary = Vocabulary()
        path = tmp_path / "state.json"
        clusterer = make_clusterer()
        checkpointer = Checkpointer(clusterer, vocabulary, path)
        clusterer.add_commit_hook(checkpointer.record_batch)
        journal = checkpointer.journal_path
        carried = 0  # terms the log's lines have carried
        compactions = 0
        for n, (at_time, batch) in enumerate(
            growing_batches(source, batches, vocabulary), start=1
        ):
            log, base = journal.stat().st_size, path.stat().st_size
            clusterer.process_batch(batch, at_time=at_time)
            line = journal_line(
                n, at_time,
                [vocabulary.term(t) for t in range(carried, len(vocabulary))],
                batch, clusterer,
            ).encode("utf-8")
            if log + len(line) > base:
                compactions += 1
                assert read_checkpoint_state(path)["sequence"] == n
                assert read_journal(journal).entries == ()
                carried = 0
            else:
                assert path.stat().st_size == base
                assert journal.read_bytes()[log:] == line
                carried = len(vocabulary)
            assert journal.stat().st_size <= path.stat().st_size
        assert 1 < compactions < len(batches) // 2
        checkpointer.abort()
        recovery = recover(path)
        assert recovery.sequence == len(batches)

    def test_every_crash_point_recovers_the_prefix(self, tmp_path):
        vocabulary, batches = build_batches(days=20)
        references = reference_states(batches)
        images = crash_images(tmp_path, vocabulary, batches, every=None)
        replayed = []
        for n, image in enumerate(images):
            recovery = recover(image)
            assert recovery.sequence == n
            assert not recovery.used_backup
            assert not recovery.journal_truncated
            assert_state_matches(recovery.clusterer, references[n])
            replayed.append(recovery.replayed_batches)
        assert 0 in replayed[1:] and max(replayed) > 1


class TestJournalHeader:
    """A new header names its base by sequence alone; a header that also
    carries the base's clock (``base_now``), as earlier writers of this
    version wrote it, still reads and recovers."""

    def test_a_new_header_carries_no_base_clock(self, tmp_path):
        vocabulary, batches = build_batches(days=DAYS)
        references = reference_states(batches)
        images = crash_images(tmp_path, vocabulary, batches, every=2)
        for n, image in enumerate(images):
            journal = image.with_name(image.name + ".journal")
            header = json.loads(journal.read_bytes().split(b"\n")[0])
            assert set(header) == {
                "format", "version", "base_sequence", "checksum",
            }
            assert header["base_sequence"] == n - n % 2
            recovery = recover(image)
            assert recovery.sequence == n
            assert recovery.replayed_batches == n % 2
            assert_state_matches(recovery.clusterer, references[n])

    def test_a_header_with_a_base_clock_still_recovers(self, tmp_path):
        vocabulary, batches = build_batches(days=DAYS)
        references = reference_states(batches)
        images = crash_images(tmp_path, vocabulary, batches, every=2)
        for n, image in enumerate(images):
            base = n - n % 2
            journal = image.with_name(image.name + ".journal")
            _, lines = journal.read_bytes().split(b"\n", 1)
            journal.write_bytes(stamped({
                "format": "repro-journal",
                "version": 3,
                "base_sequence": base,
                "base_now": references[base]["now"],
            }).encode("utf-8") + b"\n" + lines)
            contents = read_journal(journal)
            assert contents.base_sequence == base
            assert len(contents.entries) == n - base
            recovery = recover(image)
            assert recovery.sequence == n
            assert recovery.replayed_batches == n - base
            assert not recovery.journal_truncated
            assert_state_matches(recovery.clusterer, references[n])


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
        checkpointer = CadenceCheckpointer(
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
        # every batch, due or not, is encoded into the shared cache
        # before the rule decides, so a due checkpoint encodes nothing
        saves = recorder.select("checkpoint.save")
        assert [save.tags["new_docs"] for save in saves] == [0, 0, 0]
        assert [save.tags["docs"] for save in saves] == [
            0, sum(len(b) for _, b in batches[:3]),
            clusterer.statistics.size,
        ]
        # a checkpointer over a fed clusterer encodes its whole anchor
        CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "again.json", every=3,
            recorder=recorder,
        ).abort()
        anchor = recorder.select("checkpoint.save")[-1]
        assert anchor.tags["new_docs"] == anchor.tags["docs"] == (
            clusterer.statistics.size
        )


# -- mutated bytes and torn tails ------------------------------------------


@pytest.fixture(scope="module")
def mutation_run(tmp_path_factory):
    """A base written after every batch, and a log holding all of
    them, over the same growing-vocabulary stream."""
    source, batches = build_batches(days=DAYS)
    references = reference_states(
        list(growing_batches(source, batches, Vocabulary()))
    )
    images = {}
    for every in (1, 100):
        vocabulary = Vocabulary()
        live = tmp_path_factory.mktemp(f"every{every}")
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, live / "state.json", every=every
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in growing_batches(source, batches, vocabulary):
            clusterer.process_batch(batch, at_time=at_time)
        checkpointer.abort()
        images[every] = live / "state.json"
    return references, images[1], images[100]


def scratch_copy(image: Path) -> Path:
    dest = Path(tempfile.mkdtemp(prefix="repro-v3-")) / "img"
    shutil.copytree(image.parent, dest)
    return dest / image.name


def mutate(raw: bytes, flips: Sequence[Tuple[int, int]]) -> bytes:
    mutated = bytearray(raw)
    for position, bits in flips:
        mutated[position % len(raw)] ^= bits
    return bytes(mutated)


FLIPS = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(1, 255)),
    min_size=1, max_size=3,
)
MUTATION_SETTINGS = settings(
    derandomize=True, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestMutatedBytes:
    @given(flips=FLIPS)
    @MUTATION_SETTINGS
    def test_base(self, mutation_run, flips):
        references, image, _ = mutation_run
        image = scratch_copy(image)
        original = read_checkpoint_state(image)
        image.write_bytes(mutate(image.read_bytes(), flips))
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
    @MUTATION_SETTINGS
    def test_log(self, mutation_run, flips):
        references, _, image = mutation_run
        image = scratch_copy(image)
        journal = image.with_name(image.name + ".journal")
        raw = journal.read_bytes()
        header_end = raw.index(b"\n") + 1
        original = read_journal(journal).entries
        assert len(original) == DAYS
        journal.write_bytes(raw[:header_end] + mutate(
            raw[header_end:], flips
        ))
        entries = read_journal(journal).entries
        assert entries == original[:len(entries)]
        recovery = recover(image)
        assert recovery.sequence == len(entries)
        assert_state_matches(
            recovery.clusterer, references[recovery.sequence]
        )
        shutil.rmtree(image.parent.parent)

    @given(cut=st.integers(min_value=0))
    @MUTATION_SETTINGS
    def test_torn_log_tail(self, mutation_run, cut):
        references, _, image = mutation_run
        image = scratch_copy(image)
        journal = image.with_name(image.name + ".journal")
        raw = journal.read_bytes()
        header_end = raw.index(b"\n") + 1
        journal.write_bytes(
            raw[:header_end + cut % (len(raw) - header_end + 1)]
        )
        recovery = recover(image)
        whole_lines = journal.read_bytes().count(b"\n") - 1
        assert recovery.sequence == whole_lines
        assert_state_matches(
            recovery.clusterer, references[recovery.sequence]
        )
        shutil.rmtree(image.parent.parent)


class TestMutatedBytesWithTermDeltas:
    """As :class:`TestMutatedBytes`, over the stream whose every log
    line carries new terms, with more examples."""

    @pytest.fixture(scope="class")
    def mutation_run(self, tmp_path_factory):
        source, batches = stream_with_new_terms(DAYS)
        references = growing_references(source, batches)
        _, checkpointed = run_images(
            tmp_path_factory.mktemp("every1"), source, batches, every=1
        )
        _, journaled = run_images(
            tmp_path_factory.mktemp("every100"), source, batches, every=100
        )
        return references, checkpointed[DAYS][0], journaled[DAYS][0]

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
