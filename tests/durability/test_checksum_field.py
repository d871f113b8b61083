"""A damaged ``checksum`` key is corruption, not a file without one.

A file without a ``checksum`` field loads unverified (the documented
way to force a load after a hand edit). So a bit flip inside the key
itself used to turn a corrupt-marked file into an "unchecked" one that
loaded as intact; unknown top-level fields are now rejected instead.
"""

from __future__ import annotations

import json

import pytest

from repro.durability.journal import default_journal_path, read_journal
from repro.exceptions import CheckpointError, JournalError
from repro.persistence import load_checkpoint, read_checkpoint_state

from tests.durability.conftest import build_batches, crash_images

KEY = b'"checksum"'

#: Every single-bit flip that keeps a byte of the key ASCII.
FLIPS = [
    (index, bit)
    for index in range(1, len(KEY) - 1)
    for bit in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40)
]


@pytest.fixture(scope="module")
def image(tmp_path_factory):
    """The every-window crash image after six batches."""
    vocabulary, batches = build_batches(days=6)
    images = crash_images(
        tmp_path_factory.mktemp("flips"), vocabulary, batches, every=1
    )
    return images[-1]


def flipped(raw: bytes, index: int, bit: int) -> bytes:
    at = raw.index(KEY) + index
    return raw[:at] + bytes([raw[at] ^ bit]) + raw[at + 1:]


@pytest.mark.parametrize("index,bit", FLIPS)
def test_checkpoint_key_flip_is_rejected(image, tmp_path, index, bit):
    target = tmp_path / "state.json"
    target.write_bytes(flipped(image.read_bytes(), index, bit))
    with pytest.raises(CheckpointError):
        read_checkpoint_state(target)


@pytest.mark.parametrize("index,bit", FLIPS)
def test_journal_header_key_flip_is_rejected(image, tmp_path, index, bit):
    target = tmp_path / "state.json.journal"
    raw = default_journal_path(image).read_bytes()
    target.write_bytes(flipped(raw, index, bit))
    with pytest.raises(JournalError):
        read_journal(target)


def test_removing_the_checksum_still_forces_a_load(image, tmp_path):
    state = json.loads(image.read_text(encoding="utf-8"))
    state["documents"][0]["title"] = "edited by hand"
    del state["checksum"]
    target = tmp_path / "state.json"
    target.write_text(json.dumps(state), encoding="utf-8")
    restored, _ = load_checkpoint(target)
    assert restored.statistics.size == len(state["documents"])
