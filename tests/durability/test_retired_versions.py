"""Format versions 1 and 2 are refused, with the migration.

``fixtures/v1`` and ``fixtures/v2`` hold a checkpoint and its journal
in each retired version, as that version's writer wrote them (see
``fixtures/README.md``). :func:`load_checkpoint`, :func:`recover` and
:func:`read_journal` refuse each file, and the message names the last
commit that reads it and the migration: load the file with that
checkout, then save it. Beside a version-3 base, such a journal is
treated as absent, as every unreadable journal is.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro import recover
from repro.durability.journal import default_journal_path, read_journal
from repro.exceptions import CheckpointError, JournalError
from repro.obs import InMemoryRecorder
from repro.persistence import load_checkpoint, save_checkpoint

from tests.durability.conftest import (
    assert_state_matches,
    build_batches,
    fingerprint,
    make_clusterer,
)

FIXTURES = Path(__file__).parent / "fixtures"

#: What every refusal says: the version, the last commit that reads it
#: and the migration.
MIGRATION = (
    r"format version [12] is not read \(expected 3\); .* commit 0850c5c, "
    r".* load it with a checkout of that commit, then save it"
)


@pytest.fixture(params=["v1", "v2"])
def image(request, tmp_path: Path) -> Path:
    """A scratch copy of one retired version's checkpoint and journal."""
    dest = tmp_path / request.param
    shutil.copytree(FIXTURES / request.param, dest)
    return dest / "state.json"


def test_load_checkpoint_refuses_them(image):
    with pytest.raises(CheckpointError, match=MIGRATION):
        load_checkpoint(image)


def test_recover_refuses_them(image):
    with pytest.raises(CheckpointError, match=MIGRATION):
        recover(image)


def test_read_journal_refuses_them(image):
    with pytest.raises(JournalError, match=MIGRATION):
        read_journal(default_journal_path(image))


def test_another_version_names_the_one_read(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"format": "repro-checkpoint", "version": 4}))
    with pytest.raises(CheckpointError, match=r"version 4 is not read"):
        load_checkpoint(path)


def test_a_retired_journal_beside_a_version_3_base_is_absent(image):
    """The writer rewrites the base before it restarts the log, so a
    base of version 3 beside a retired journal holds every batch that
    journal could add: recovery takes the base alone."""
    journal = default_journal_path(image)
    base_sequence = json.loads(journal.read_bytes().split(b"\n")[0])[
        "base_sequence"
    ]
    vocabulary, batches = build_batches(days=3)
    clusterer = make_clusterer()
    for at_time, batch in batches:
        clusterer.process_batch(batch, at_time=at_time)
    save_checkpoint(clusterer, vocabulary, image, sequence=base_sequence)

    recorder = InMemoryRecorder()
    recovery = recover(image, recorder=recorder)
    assert recovery.sequence == base_sequence
    assert recovery.replayed_batches == 0
    assert recorder.counters()["durability.journal_discarded"] == 1
    assert_state_matches(recovery.clusterer, fingerprint(clusterer))
