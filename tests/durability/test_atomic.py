"""Unit tests of the atomic-write and checksum primitives."""

from __future__ import annotations

import json
import os

import pytest

from repro.durability.atomic import (
    atomic_write_pieces,
    backup_path,
    prepare_checkpoint_path,
    stamp_pieces,
    text_checksum_matches,
)
from repro.exceptions import CheckpointError


class TestChecksums:
    def test_round_trips_through_json(self):
        """The checksum the writer stamps verifies on the text it wrote
        (floats, exponents and non-ASCII text included)."""
        body = '{"a": 0.30000000000000004, "b": [1e-300, "naïve"]'
        text = b"".join(
            stamp_pieces([body.encode("utf-8"), b', "now": 42.0'])
        ).decode("utf-8")
        parsed = json.loads(text)
        assert parsed["b"] == [1e-300, "naïve"]
        assert text_checksum_matches(text, parsed) is True

    def test_detects_any_change(self):
        text = b"".join(stamp_pieces([b'{"a": 1'])).decode("utf-8")
        assert text_checksum_matches(text, json.loads(text)) is True
        edited = text.replace('"a": 1', '"a": 2')
        assert text_checksum_matches(edited, json.loads(edited)) is False

    def test_absent_checksum_is_none(self):
        assert text_checksum_matches('{"a": 1}', {"a": 1}) is None


def write_atomically(text, path, backup=False):
    return atomic_write_pieces([text.encode("utf-8")], path, backup=backup)


class TestAtomicWrite:
    def test_writes_and_counts_bytes(self, tmp_path):
        target = tmp_path / "out.txt"
        written = atomic_write_pieces(
            ["hé".encode("utf-8"), b"llo"], target
        )
        assert target.read_text(encoding="utf-8") == "héllo"
        assert written == len("héllo".encode("utf-8"))

    def test_backup_rotation_keeps_previous_generation(self, tmp_path):
        target = tmp_path / "state.json"
        write_atomically("one", target, backup=True)
        assert not backup_path(target).exists()
        write_atomically("two", target, backup=True)
        assert target.read_text() == "two"
        assert backup_path(target).read_text() == "one"
        write_atomically("three", target, backup=True)
        assert backup_path(target).read_text() == "two"

    def test_fsync_failure_leaves_target_untouched(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "state.json"
        write_atomically("good", target)

        def explode(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError):
            write_atomically("evil", target)
        monkeypatch.undo()
        assert target.read_text() == "good"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_replace_failure_leaves_target_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "state.json"
        write_atomically("good", target)
        real_replace = os.replace

        def torn(src, dst):
            raise OSError("simulated power loss")

        monkeypatch.setattr(os, "replace", torn)
        with pytest.raises(OSError):
            write_atomically("evil", target)
        monkeypatch.setattr(os, "replace", real_replace)
        assert target.read_text() == "good"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_json_adds_verifiable_checksum(self, tmp_path):
        """A file stamped with its byte checksum verifies through the
        reader's check after the round trip through the disk."""
        target = tmp_path / "state.json"
        atomic_write_pieces(
            stamp_pieces(['{"a": 1, "b": "naïve"'.encode("utf-8")]), target
        )
        text = target.read_text(encoding="utf-8")
        state = json.loads(text)
        assert text_checksum_matches(text, state) is True
        assert state["a"] == 1
        edited = text.replace('"a": 1', '"a": 2')
        assert text_checksum_matches(edited, json.loads(edited)) is False

    def test_json_without_checksum(self, tmp_path):
        target = tmp_path / "plain.json"
        write_atomically(json.dumps({"a": 1}), target)
        text = target.read_text()
        assert json.loads(text) == {"a": 1}
        assert text_checksum_matches(text, json.loads(text)) is None


class TestPrepareCheckpointPath:
    def test_creates_missing_parents(self, tmp_path):
        target = tmp_path / "deep" / "er" / "state.json"
        assert prepare_checkpoint_path(target) == target
        assert target.parent.is_dir()

    def test_rejects_directory_target(self, tmp_path):
        with pytest.raises(CheckpointError, match="is a directory"):
            prepare_checkpoint_path(tmp_path)

    def test_rejects_file_as_parent(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(CheckpointError, match="cannot create"):
            prepare_checkpoint_path(blocker / "state.json")
