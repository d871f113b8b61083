"""Unit tests of the atomic-write and checksum primitives."""

from __future__ import annotations

import json
import os

import pytest

from repro.durability.atomic import (
    atomic_write_pieces,
    backup_path,
    canonical_json,
    checksum_matches,
    payload_checksum,
    prepare_checkpoint_path,
    text_checksum_matches,
)
from repro.exceptions import CheckpointError


class TestChecksums:
    def test_round_trips_through_json(self):
        """The checksum recomputed after parsing the written file must
        equal the one stamped before writing (float shortest-repr)."""
        payload = {"a": 0.1 + 0.2, "b": [1e-300, "naïve"], "now": 42.0}
        stamped = dict(payload, checksum=payload_checksum(payload))
        parsed = json.loads(json.dumps(stamped, ensure_ascii=False))
        assert checksum_matches(parsed) is True

    def test_detects_any_change(self):
        payload = {"a": 1, "checksum": None}
        payload["checksum"] = payload_checksum(payload)
        assert checksum_matches(payload) is True
        payload["a"] = 2
        assert checksum_matches(payload) is False

    def test_absent_checksum_is_none(self):
        assert checksum_matches({"a": 1}) is None

    def test_canonical_form_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )
        assert payload_checksum({"b": 1, "a": 2}) == payload_checksum(
            {"a": 2, "b": 1}
        )


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
        """A file stamped with the canonical (version-1) checksum still
        verifies through the reader's check."""
        target = tmp_path / "state.json"
        payload = {"a": 1, "b": "naïve"}
        write_atomically(json.dumps(
            dict(payload, checksum=payload_checksum(payload)),
            ensure_ascii=False,
        ), target)
        text = target.read_text(encoding="utf-8")
        state = json.loads(text)
        assert text_checksum_matches(text, state) is True
        assert state["a"] == 1
        state["a"] = 2
        assert text_checksum_matches(text, state) is False

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
