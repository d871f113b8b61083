"""Format version 2 stays readable.

``fixtures/v2`` is a version-2 checkpoint plus a log of two lines,
written by the version-2 writer (see ``fixtures/README.md``): rows as
``term_ids``/``counts`` int lists, a ``{doc_id: cluster}`` assignment
and lines with no assignment, which recovery replays through
``process_batch``. Recovery must restore the fingerprint the writing
run recorded at its crash, and the prefix of the same stream rebuilt
here.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import List, Tuple

import pytest

from repro import Document, Vocabulary, recover
from repro.durability.journal import read_journal
from repro.persistence import read_checkpoint_state

from tests.durability.conftest import (
    Batch,
    Fingerprint,
    assert_state_matches,
    build_batches,
    reference_states,
)

FIXTURE = Path(__file__).parent / "fixtures" / "v2"
#: Batches the fixture's run committed before its crash.
CRASHED_AT = 8


def fixture_stream() -> Tuple[Vocabulary, List[Batch]]:
    """The stream the fixture was written from: eight days of the
    two-topic stream, plus a document with non-ASCII terms in the
    seventh, which the log carries."""
    vocabulary, batches = build_batches(days=CRASHED_AT)
    at_time, batch = batches[6]
    batches[6] = (at_time, batch + [Document(
        doc_id="naive-1", timestamp=at_time - 0.5,
        term_counts={vocabulary.add("naïve"): 2, vocabulary.add("café"): 1},
        topic_id="food", title="Café naïve",
    )])
    return vocabulary, batches


def recorded_fingerprint() -> Fingerprint:
    recorded = json.loads(
        (FIXTURE / "fingerprint.json").read_text(encoding="utf-8")
    )
    recorded["doc_ids"] = tuple(recorded["doc_ids"])
    return recorded


@pytest.fixture
def image(tmp_path: Path) -> Path:
    dest = tmp_path / "v2"
    shutil.copytree(FIXTURE, dest)
    return dest / "state.json"


def test_the_fixture_is_version_2(image):
    state = read_checkpoint_state(image)
    assert state["version"] == 2
    assert state["sequence"] == 6
    assert isinstance(state["assignment"], dict)
    header = json.loads(image.with_name("state.json.journal").read_bytes()
                        .split(b"\n")[0])
    assert header["version"] == 2
    contents = read_journal(image.with_name("state.json.journal"))
    assert [entry.sequence for entry in contents.entries] == [7, 8]
    assert all(entry.assignment is None for entry in contents.entries)


def test_recovery_restores_the_recorded_fingerprint(image):
    recovery = recover(image)
    assert recovery.sequence == CRASHED_AT
    assert recovery.replayed_batches == 2
    assert not recovery.used_backup
    assert not recovery.journal_truncated
    assert_state_matches(recovery.clusterer, recorded_fingerprint())
    _, batches = fixture_stream()
    assert_state_matches(
        recovery.clusterer, reference_states(batches)[CRASHED_AT]
    )
    restored = recovery.clusterer.statistics.document("naive-1")
    assert {
        recovery.vocabulary.term(t): c
        for t, c in restored.term_counts.items()
    } == {"naïve": 2, "café": 1}
