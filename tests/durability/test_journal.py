"""Batch-journal round trips, torn tails, and header validation."""

from __future__ import annotations

import json
import os

import pytest

from repro.durability.journal import (
    BatchJournal,
    default_journal_path,
    read_journal,
)
from repro.durability.records import RecordCache, assignment_text
from repro.exceptions import JournalError
from repro.persistence import record_to_document

from tests.durability.conftest import build_batches


@pytest.fixture(scope="module")
def stream():
    return build_batches(days=4)


def unassigned(batch):
    """A packed assignment of ``batch``'s documents, none in a cluster."""
    return assignment_text([doc.doc_id for doc in batch], {})


def open_journal(path, vocabulary, base_sequence=0):
    return BatchJournal(
        path, RecordCache(vocabulary), base_sequence=base_sequence
    )


def append(journal, batch, at_time):
    """Log ``batch`` as the next line, none of its documents assigned;
    returns its sequence."""
    return journal.write(journal.encode(batch, at_time, unassigned(batch)))


def write_journal(path, vocabulary, batches, base_sequence=0):
    journal = open_journal(path, vocabulary, base_sequence)
    for at_time, batch in batches:
        append(journal, batch, at_time)
    journal.close()
    return journal


class TestRoundTrip:
    def test_default_path_is_checkpoint_sibling(self, tmp_path):
        assert default_journal_path(tmp_path / "s.json") == (
            tmp_path / "s.json.journal"
        )

    def test_entries_round_trip(self, stream, tmp_path):
        vocabulary, batches = stream
        path = tmp_path / "run.journal"
        write_journal(path, vocabulary, batches, base_sequence=7)

        contents = read_journal(path)
        assert contents.base_sequence == 7
        assert not contents.truncated
        assert [e.sequence for e in contents.entries] == [8, 9, 10, 11]
        assert [e.at_time for e in contents.entries] == [
            at for at, _ in batches
        ]
        for entry, (_, batch) in zip(contents.entries, batches):
            rebuilt = [
                record_to_document(record, vocabulary)
                for record in entry.records
            ]
            assert [d.doc_id for d in rebuilt] == [
                d.doc_id for d in batch
            ]
            assert [d.term_counts for d in rebuilt] == [
                d.term_counts for d in batch
            ]
            assert entry.assignment == [-1] * len(batch)

    def test_rotate_restarts_under_new_base(self, stream, tmp_path):
        vocabulary, batches = stream
        path = tmp_path / "run.journal"
        journal = open_journal(path, vocabulary)
        append(journal, batches[0][1], batches[0][0])
        journal.rotate(base_sequence=1)
        append(journal, batches[1][1], batches[1][0])
        journal.close()

        contents = read_journal(path)
        assert contents.base_sequence == 1
        assert [e.sequence for e in contents.entries] == [2]

    def test_append_after_close_raises(self, stream, tmp_path):
        vocabulary, batches = stream
        journal = open_journal(tmp_path / "run.journal", vocabulary)
        line = journal.encode(
            batches[0][1], batches[0][0], unassigned(batches[0][1])
        )
        journal.close()
        assert journal.closed
        with pytest.raises(JournalError, match="closed"):
            append(journal, batches[0][1], batches[0][0])
        with pytest.raises(JournalError, match="closed"):
            journal.write(line)

    def test_failed_fsync_closes_journal(
        self, stream, tmp_path, monkeypatch
    ):
        vocabulary, batches = stream
        journal = open_journal(tmp_path / "run.journal", vocabulary)
        append(journal, batches[0][1], batches[0][0])

        def explode(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError):
            append(journal, batches[1][1], batches[1][0])
        monkeypatch.undo()
        assert journal.closed
        # the first entry is still intact on disk
        contents = read_journal(journal.path)
        assert [e.sequence for e in contents.entries][:1] == [1]


class TestTornTails:
    def test_truncated_final_line_is_discarded(self, stream, tmp_path):
        vocabulary, batches = stream
        path = tmp_path / "run.journal"
        write_journal(path, vocabulary, batches)
        whole = path.read_bytes()
        lines = whole.rstrip(b"\n").split(b"\n")
        intact_up_to_last = b"\n".join(lines[:-1]) + b"\n"

        for cut in (1, len(lines[-1]) // 2, len(lines[-1]) - 1):
            path.write_bytes(intact_up_to_last + lines[-1][:cut])
            contents = read_journal(path)
            assert contents.truncated
            assert [e.sequence for e in contents.entries] == [1, 2, 3]

    def test_corrupt_middle_line_cuts_the_suffix(self, stream, tmp_path):
        vocabulary, batches = stream
        path = tmp_path / "run.journal"
        write_journal(path, vocabulary, batches)
        lines = path.read_bytes().rstrip(b"\n").split(b"\n")
        lines[2] = lines[2].replace(b'"at_time"', b'"at_tyme"', 1)
        path.write_bytes(b"\n".join(lines) + b"\n")

        contents = read_journal(path)
        assert contents.truncated
        assert [e.sequence for e in contents.entries] == [1]

    def test_sequence_gap_cuts_the_suffix(self, stream, tmp_path):
        vocabulary, batches = stream
        path = tmp_path / "run.journal"
        write_journal(path, vocabulary, batches)
        lines = path.read_text().rstrip("\n").split("\n")
        del lines[2]  # drop sequence 2: 1, 3, 4 is not contiguous
        path.write_text("\n".join(lines) + "\n")

        contents = read_journal(path)
        assert contents.truncated
        assert [e.sequence for e in contents.entries] == [1]


class TestHeaderValidation:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.journal"
        path.write_text("")
        with pytest.raises(JournalError, match="empty journal"):
            read_journal(path)

    def test_unparsable_header(self, tmp_path):
        path = tmp_path / "bad.journal"
        path.write_text("{torn")
        with pytest.raises(JournalError, match="invalid journal header"):
            read_journal(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "other.journal"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(JournalError, match="not a repro journal"):
            read_journal(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v99.journal"
        path.write_text(json.dumps(
            {"format": "repro-journal", "version": 99}
        ) + "\n")
        with pytest.raises(JournalError, match="version"):
            read_journal(path)

    def test_header_checksum_mismatch(self, stream, tmp_path):
        vocabulary, _ = stream
        path = tmp_path / "run.journal"
        open_journal(path, vocabulary, base_sequence=3).close()
        text = path.read_text().replace(
            '"base_sequence":3', '"base_sequence":4'
        ).replace('"base_sequence": 3', '"base_sequence": 4')
        path.write_text(text)
        with pytest.raises(JournalError, match="checksum mismatch"):
            read_journal(path)
