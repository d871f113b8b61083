"""``repro serve --follow`` killed with SIGKILL and resumed, for real.

The durability suites crash the pipeline in-process; this test kills
the whole process. A child tails a JSONL file that the test appends
to; once the child has journaled a new batch it is SIGKILLed, and the
next child resumes from the checkpoint over the same file, which its
tailer reads again from the start. The last child runs to a clean
exit. The state on disk must then equal one uninterrupted in-process
run over the whole file.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import ClusterSnapshot, Vocabulary, iter_batches
from repro.cli import main
from repro.corpus.loaders import load_jsonl, save_jsonl
from repro.durability import read_journal, recover
from repro.durability.journal import default_journal_path
from repro.exceptions import ReproError
from tests.conftest import build_topic_repository
from tests.service.conftest import assert_snapshot_parity

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX signals"
)

SRC = Path(__file__).resolve().parent.parent / "src"
RUN = ["--k", "4", "--seed", "0", "--batch-days", "1"]
KILLS = 3
#: How long one child may take to journal its next batch.
PATIENCE_S = 30.0


def durable_sequence(state: Path) -> int:
    """The newest batch sequence on disk: the journal's last intact
    line, or the base it was restarted under (-1 before either)."""
    try:
        contents = read_journal(default_journal_path(state))
    except (OSError, ReproError):
        return -1
    if contents.entries:
        return contents.entries[-1].sequence
    return contents.base_sequence


def start_child(stream: Path, state: Path, resume: bool,
                duration: float) -> subprocess.Popen:
    durable = ["--resume", str(state)] if resume else [
        "--checkpoint", str(state)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--input",
         str(stream), "--follow", "--poll-interval", "0.05",
         "--duration", str(duration), *RUN, *durable],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env,
    )


def append(stream: Path, lines) -> None:
    with open(stream, "a") as handle:
        handle.writelines(lines)
        handle.flush()


def test_sigkilled_serve_resumes_to_the_uninterrupted_state(tmp_path):
    repo = build_topic_repository(days=12, docs_per_topic_per_day=2,
                                  seed=7)
    ordered = tmp_path / "ordered.jsonl"
    save_jsonl(
        sorted(repo.documents(), key=lambda d: (d.timestamp, d.doc_id)),
        repo.vocabulary, ordered,
    )
    lines = ordered.read_text().splitlines(keepends=True)
    documents = load_jsonl(ordered, Vocabulary())
    batches = list(iter_batches(documents, 1.0))
    # the line that opens each batch; appending up to and including it
    # lets the child close every batch before it
    opens = [0]
    for _, batch in batches[:-1]:
        opens.append(opens[-1] + len(batch))
    rng = random.Random(2006)
    kill_batches = sorted(rng.sample(range(1, len(batches) - 1), KILLS))

    whole = tmp_path / "whole.json"
    assert main(["serve", "--input", str(ordered), *RUN,
                 "--checkpoint", str(whole), "--quiet"]) == 0

    stream = tmp_path / "stream.jsonl"
    stream.touch()
    state = tmp_path / "state.json"
    written = 0
    seen = 0  # a fresh checkpoint's base
    durable = []
    versions = []
    for run, upto in enumerate(kill_batches):
        child = start_child(stream, state, resume=run > 0, duration=120)
        try:
            append(stream, lines[written:opens[upto + 1] + 1])
            written = opens[upto + 1] + 1
            deadline = time.monotonic() + PATIENCE_S
            while durable_sequence(state) <= seen:
                assert child.poll() is None, child.communicate()
                assert time.monotonic() < deadline, "no new journal line"
                time.sleep(0.02)
            child.send_signal(signal.SIGKILL)
            out, err = child.communicate(timeout=PATIENCE_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode == -signal.SIGKILL
        assert err == ""
        seen = durable_sequence(state)
        durable.append(seen)
        versions += re.findall(r"at snapshot version (\d+)", out)

    append(stream, lines[written:])
    child = start_child(stream, state, resume=True, duration=2.0)
    out, err = child.communicate(timeout=PATIENCE_S + 10)
    assert (child.returncode, err) == (0, "")
    versions += re.findall(r"at snapshot version (\d+)", out)

    expected = recover(whole)
    final = recover(state)
    assert expected.sequence == len(batches)
    assert_snapshot_parity(
        ClusterSnapshot.from_clusterer(final.sequence, final.clusterer),
        ClusterSnapshot.from_clusterer(expected.sequence,
                                       expected.clusterer),
    )
    assert set(final.clusterer.statistics.doc_ids()) == {
        json.loads(line)["doc_id"] for line in lines
    }
    # each restart resumed at the last version its killed predecessor
    # made durable, and numbering went on from there: the final
    # sequence counts every batch once
    assert [int(v) for v in versions] == durable
    assert durable == sorted(set(durable))
