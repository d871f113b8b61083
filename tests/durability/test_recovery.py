"""Fault injection: kill the pipeline at every crash point, recover,
and assert the restored state is a batch-prefix of the uninterrupted
run — with the surviving checkpoint never corrupt or truncated."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import recover
from repro.durability.atomic import backup_path
from repro.exceptions import CheckpointError
from repro.persistence import load_checkpoint, read_checkpoint_state

from tests.durability.conftest import (
    CadenceCheckpointer,
    assert_state_matches,
    crash_images,
    make_clusterer,
    reference_states,
)


class TestCrashAtEveryCommit:
    @pytest.mark.parametrize(
        "every, source",
        [(1, "stream"), (3, "stream"), (100, "stream"), (3, "tdt2_stream")],
        ids=["1", "3", "100", "tdt2"],
    )
    def test_recovery_lands_on_the_exact_prefix(
        self, request, tmp_path, every, source
    ):
        """Crash right after any batch commit: nothing acknowledged is
        lost, whatever the checkpoint cadence — the journal holds the
        tail the checkpoint hasn't absorbed."""
        vocabulary, batches = request.getfixturevalue(source)
        references = reference_states(batches)
        images = crash_images(
            tmp_path, vocabulary, batches, every=every
        )
        for n, image in enumerate(images):
            # the image's checkpoint must itself be intact...
            state = read_checkpoint_state(image)
            assert state.get("sequence") == (n // every) * every
            # ...and recovery must reach exactly the crashed prefix
            recovery = recover(image)
            assert recovery.sequence == n
            assert recovery.replayed_batches == n - (n // every) * every
            assert not recovery.used_backup
            assert not recovery.journal_truncated
            assert_state_matches(recovery.clusterer, references[n])

    def test_recovered_run_can_continue(self, stream, references, tmp_path):
        """A recovered clusterer keeps clustering — and a second crash
        after that still recovers."""
        vocabulary, batches = stream
        images = crash_images(
            tmp_path / "first", vocabulary, batches[:3], every=2
        )
        recovery = recover(images[3])
        clusterer = recovery.clusterer
        path = tmp_path / "second" / "state.json"
        checkpointer = CadenceCheckpointer(
            clusterer, recovery.vocabulary, path,
            every=2, sequence=recovery.sequence,
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in batches[3:]:
            clusterer.process_batch(batch, at_time=at_time)
        # crash again: no close()
        second = recover(path)
        assert second.sequence == len(batches)
        assert_state_matches(second.clusterer, references[len(batches)])


class TestTornCheckpointWrites:
    def test_torn_replace_recovers_from_backup(
        self, stream, references, tmp_path, monkeypatch
    ):
        """Power loss between the two renames of a checkpoint write:
        the primary is already rotated to .bak and the new file never
        landed. The journal still reaches the crashed batch."""
        vocabulary, batches = stream
        path = tmp_path / "state.json"
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(clusterer, vocabulary, path, every=1)
        clusterer.add_commit_hook(checkpointer.record_batch)
        clusterer.process_batch(batches[0][1], at_time=batches[0][0])

        real_replace = os.replace

        def torn(src, dst):
            if Path(dst).name == "state.json":
                raise OSError("simulated power loss mid-replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", torn)
        with pytest.raises(OSError):
            clusterer.process_batch(batches[1][1], at_time=batches[1][0])
        monkeypatch.undo()

        assert not path.exists()          # torn away
        assert backup_path(path).exists()  # previous generation intact
        recovery = recover(path)
        assert recovery.used_backup
        assert recovery.sequence == 2
        assert recovery.replayed_batches == 1
        assert_state_matches(recovery.clusterer, references[2])

    def test_corrupt_primary_falls_back_to_backup(
        self, stream, references, tmp_path
    ):
        """Bit rot in the primary checkpoint is caught by the checksum
        and the .bak generation serves."""
        vocabulary, batches = stream
        images = crash_images(tmp_path, vocabulary, batches[:3], every=1)
        image = images[3]
        raw = image.read_bytes()
        flip = raw.find(b'"now"')
        image.write_bytes(raw[:flip] + b'"nqw"' + raw[flip + 5:])

        recovery = recover(image)
        assert recovery.used_backup
        # the .bak holds sequence 2; its journal (base 3) is from the
        # rotted primary's future and is rightly discarded
        assert recovery.sequence == 2
        assert recovery.replayed_batches == 0
        assert_state_matches(recovery.clusterer, references[2])

    @pytest.mark.parametrize("now", ["x", [1]], ids=["string", "list"])
    def test_unrestorable_primary_falls_back_to_backup(
        self, stream, references, tmp_path, now
    ):
        """A primary edited by hand, without its checksum, whose clock is
        not a number parses but does not restore: loading it is a
        CheckpointError, and recovery serves the .bak generation."""
        vocabulary, batches = stream
        images = crash_images(tmp_path, vocabulary, batches[:3], every=1)
        image = images[3]
        state = json.loads(image.read_text(encoding="utf-8"))
        del state["checksum"]
        state["now"] = now
        image.write_text(json.dumps(state), encoding="utf-8")
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_checkpoint(image)

        recovery = recover(image)
        assert recovery.used_backup
        assert recovery.checkpoint_path == backup_path(image)
        assert recovery.sequence == 2
        assert recovery.replayed_batches == 0
        assert_state_matches(recovery.clusterer, references[2])

    def test_both_generations_corrupt_raises(self, stream, tmp_path):
        vocabulary, batches = stream
        images = crash_images(tmp_path, vocabulary, batches[:2], every=1)
        image = images[2]
        image.write_text("{torn")
        backup_path(image).write_text("also torn")
        with pytest.raises(CheckpointError, match="no recoverable"):
            recover(image)

    def test_missing_everything_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            recover(tmp_path / "never-written.json")


class TestCheckpointReads:
    """Recovery parses each candidate checkpoint once: the one it picks
    is restored from that parse, not read again."""

    @staticmethod
    def spy(monkeypatch):
        import repro.durability.recovery as recovery_module
        import repro.persistence as persistence_module

        calls = []
        real = persistence_module.read_checkpoint_state

        def counting(path):
            calls.append(Path(path).name)
            return real(path)

        for module in (recovery_module, persistence_module):
            monkeypatch.setattr(module, "read_checkpoint_state", counting)
        return calls

    def test_a_valid_primary_is_read_once(
        self, stream, references, tmp_path, monkeypatch
    ):
        vocabulary, batches = stream
        images = crash_images(tmp_path, vocabulary, batches[:3], every=2)
        calls = self.spy(monkeypatch)
        recovery = recover(images[3])
        assert calls == ["state.json"]
        assert recovery.sequence == 3
        assert_state_matches(recovery.clusterer, references[3])

    def test_each_candidate_is_read_once(
        self, stream, references, tmp_path, monkeypatch
    ):
        vocabulary, batches = stream
        images = crash_images(tmp_path, vocabulary, batches[:3], every=1)
        images[3].write_text("{torn")
        calls = self.spy(monkeypatch)
        recovery = recover(images[3])
        assert calls == ["state.json", "state.json.bak"]
        assert recovery.used_backup
        assert recovery.sequence == 2
        assert_state_matches(recovery.clusterer, references[2])


class TestJournalFaults:
    def test_torn_journal_tail_recovers_shorter_prefix(
        self, stream, references, tmp_path
    ):
        """Crash mid-append: the half-written final line is discarded
        and recovery lands one batch earlier — still a prefix."""
        vocabulary, batches = stream
        images = crash_images(
            tmp_path, vocabulary, batches, every=100
        )
        image = images[len(batches)]
        journal = image.with_name(image.name + ".journal")
        lines = journal.read_bytes().rstrip(b"\n").split(b"\n")
        journal.write_bytes(
            b"\n".join(lines[:-1]) + b"\n"
            + lines[-1][: len(lines[-1]) // 2]
        )

        recovery = recover(image)
        assert recovery.journal_truncated
        assert recovery.sequence == len(batches) - 1
        assert_state_matches(
            recovery.clusterer, references[len(batches) - 1]
        )

    def test_unreadable_journal_header_recovers_checkpoint_alone(
        self, stream, references, tmp_path
    ):
        vocabulary, batches = stream
        images = crash_images(tmp_path, vocabulary, batches[:4], every=2)
        image = images[3]  # checkpoint at 2, journal holds batch 3
        journal = image.with_name(image.name + ".journal")
        header, _, lines = journal.read_text().partition("\n")
        header = json.loads(header)
        del header["checksum"]
        # a torn header, or an intact one whose base time is no number
        hostile = ["{torn"] + [
            json.dumps(dict(header, base_now=value)) + "\n" + lines
            for value in ([1], {"a": 1}, "x")
        ]
        for text in hostile:
            journal.write_text(text)
            recovery = recover(image)
            assert recovery.sequence == 2, text
            assert recovery.replayed_batches == 0
            assert_state_matches(recovery.clusterer, references[2])

    def test_missing_journal_recovers_checkpoint_alone(
        self, stream, references, tmp_path
    ):
        vocabulary, batches = stream
        images = crash_images(tmp_path, vocabulary, batches[:3], every=1)
        image = images[3]
        image.with_name(image.name + ".journal").unlink()
        recovery = recover(image)
        assert recovery.sequence == 3
        assert_state_matches(recovery.clusterer, references[3])

    def test_journal_ahead_of_valid_primary_raises(
        self, stream, tmp_path
    ):
        """A valid primary checkpoint paired with a journal from its
        future means mixed-up files: recovery must refuse rather than
        silently drop acknowledged batches."""
        vocabulary, batches = stream
        old = crash_images(tmp_path / "old", vocabulary, batches[:1])
        new = crash_images(tmp_path / "new", vocabulary, batches[:3])
        with pytest.raises(CheckpointError, match="ahead of"):
            recover(
                old[1],  # checkpoint at sequence 1 ...
                journal_path=new[3].with_name(new[3].name + ".journal"),
            )  # ... paired with a journal rotated at base 3

    def test_fsync_failure_midrun_still_recovers_a_prefix(
        self, stream, references, tmp_path, monkeypatch
    ):
        """An I/O error while journaling batch n: the caller sees the
        failure, and recovery lands on batch n-1 or n (the line may or
        may not have reached the disk) — never anything else."""
        vocabulary, batches = stream
        path = tmp_path / "state.json"
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, path, every=100
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in batches[:2]:
            clusterer.process_batch(batch, at_time=at_time)

        def explode(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError):
            clusterer.process_batch(batches[2][1], at_time=batches[2][0])
        monkeypatch.undo()

        recovery = recover(path)
        assert recovery.sequence in (2, 3)
        assert_state_matches(
            recovery.clusterer, references[recovery.sequence]
        )
