"""Format version 1 stays readable.

``fixtures/v1`` is a version-1 checkpoint plus journal, written by the
version-1 writer (see ``fixtures/README.md``): term strings per
document, canonical-JSON checksums, a non-ASCII term and a re-fed id.
Recovery must land on the same prefix of the same stream, and a run
that goes on from there writes version 2.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import List, Tuple

import pytest

from repro import Checkpointer, Document, Vocabulary, recover
from repro.exceptions import CheckpointError
from repro.persistence import read_checkpoint_state

from tests.durability.conftest import (
    Batch,
    assert_state_matches,
    build_batches,
    reference_states,
)

FIXTURE = Path(__file__).parent / "fixtures" / "v1"
#: Batches the fixture's run committed before its crash.
CRASHED_AT = 17


def fixture_stream() -> Tuple[Vocabulary, List[Batch]]:
    """The stream the fixture was written from."""
    vocabulary, batches = build_batches(days=CRASHED_AT)
    at_time, batch = batches[13]
    batches[13] = (at_time, batch + [Document(
        doc_id="naive-1", timestamp=13.5,
        term_counts={vocabulary.add("naïve"): 2, vocabulary.add("café"): 1},
        topic_id="food", title="Café naïve",
    )])
    first = batches[1][1][0]
    at_time, batch = batches[16]
    batches[16] = (at_time, batch + [Document(
        doc_id=first.doc_id, timestamp=16.5,
        term_counts={
            vocabulary.add("éclipse"): 3, vocabulary.add("солнце"): 1,
        },
        topic_id="eclipse", title="Éclipse totale — 日食",
    )])
    return vocabulary, batches


@pytest.fixture(scope="module")
def stream() -> Tuple[Vocabulary, List[Batch]]:
    return fixture_stream()


@pytest.fixture
def image(tmp_path: Path) -> Path:
    """A scratch copy of the fixture (recovery must not need to write,
    but a continuing run does)."""
    dest = tmp_path / "v1"
    shutil.copytree(FIXTURE, dest)
    return dest / "state.json"


def test_the_fixture_is_version_1(image):
    state = read_checkpoint_state(image)
    assert state["version"] == 1
    assert state["sequence"] == 15
    assert "terms" not in state
    header, *lines = image.with_name("state.json.journal").read_text(
        encoding="utf-8"
    ).splitlines()
    assert json.loads(header)["version"] == 1
    assert [json.loads(line)["sequence"] for line in lines] == [16, 17]


def test_recovery_lands_on_the_crashed_prefix(stream, image):
    vocabulary, batches = stream
    recovery = recover(image)
    assert recovery.sequence == CRASHED_AT
    assert recovery.replayed_batches == 2
    assert not recovery.used_backup
    assert not recovery.journal_truncated
    assert_state_matches(
        recovery.clusterer, reference_states(batches)[CRASHED_AT]
    )
    refed = batches[16][1][-1]
    restored = recovery.clusterer.statistics.document(refed.doc_id)
    assert restored.title == "Éclipse totale — 日食"
    assert {
        recovery.vocabulary.term(t): c
        for t, c in restored.term_counts.items()
    } == {"éclipse": 3, "солнце": 1}


def test_a_v1_checksum_still_catches_corruption(image):
    raw = image.read_bytes()
    at = raw.index(b'"now": ') + len(b'"now": ')
    image.write_bytes(raw[:at] + b"9" + raw[at + 1:])
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        read_checkpoint_state(image)


def test_a_run_resumed_from_v1_writes_v2(stream, image):
    vocabulary, batches = stream
    recovery = recover(image, vocabulary=vocabulary)
    checkpointer = Checkpointer(
        recovery.clusterer, vocabulary, image, every=3,
        sequence=recovery.sequence,
    )
    assert read_checkpoint_state(image)["version"] == 2
    checkpointer.close()
    again = recover(image)
    assert again.sequence == CRASHED_AT
    assert_state_matches(
        again.clusterer, reference_states(batches)[CRASHED_AT]
    )
