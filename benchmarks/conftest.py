"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper.
Regenerated artifacts are registered through the ``reporter`` fixture:
they are written to ``benchmarks/reports/<name>.txt`` and echoed into
the terminal summary, so ``pytest benchmarks/ --benchmark-only`` leaves
both machine-readable files and a human-readable transcript.

Every benchmark session additionally replays a small instrumented
pipeline and writes ``benchmarks/reports/BENCH_pipeline.json`` — the
machine-readable per-phase timing/counter trajectory point that perf
PRs diff against (see ``pytest_sessionfinish``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro import SyntheticCorpusConfig, TDT2Generator, split_into_windows

# bench_ablation_representatives imports its reference Cluster from the
# test package at the repository root
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

REPORTS_DIR = Path(__file__).parent / "reports"
BENCH_PIPELINE_PATH = REPORTS_DIR / "BENCH_pipeline.json"

_REPORTS: Dict[str, str] = {}
_ORDER: List[str] = []


class Reporter:
    """Collects named textual artifacts produced by benchmark modules."""

    def add(self, name: str, text: str) -> None:
        REPORTS_DIR.mkdir(exist_ok=True)
        (REPORTS_DIR / f"{name}.txt").write_text(text + "\n",
                                                 encoding="utf-8")
        if name not in _REPORTS:
            _ORDER.append(name)
        _REPORTS[name] = text


@pytest.fixture(scope="session")
def reporter() -> Reporter:
    return Reporter()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "paper artifacts (regenerated)")
    for name in _ORDER:
        terminalreporter.write_sep("-", name)
        terminalreporter.write_line(_REPORTS[name])


def _pipeline_trace_point() -> Dict[str, Any]:
    """Replay a small instrumented stream; return the obs summary.

    Deliberately tiny (a few hundred documents, weekly batches) so the
    trajectory point costs ~a second per benchmark session but still
    exercises every instrumented phase: statistics update, expiry,
    vectorisation, K-means passes, and the repair moves.
    """
    from repro import ForgettingModel, IncrementalClusterer, replay
    from repro.obs import InMemoryRecorder, summarize

    config = SyntheticCorpusConfig(seed=1998, total_documents=600)
    documents = TDT2Generator(config).generate().documents()
    documents.sort(key=lambda d: d.timestamp)
    recorder = InMemoryRecorder()
    model = ForgettingModel(half_life=7.0, life_span=14.0)
    clusterer = IncrementalClusterer(model, k=8, seed=0, recorder=recorder)
    replay(clusterer, documents, batch_days=7.0)
    phase_totals: Dict[str, float] = {}
    for result in clusterer.history:
        for phase, seconds in result.timings.items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
    return {
        "schema": 1,
        "config": {
            "seed": 1998,
            "total_documents": len(documents),
            "k": 8,
            "half_life": 7.0,
            "life_span": 14.0,
            "batch_days": 7.0,
        },
        "batches": len(clusterer.history),
        "events": len(recorder.events),
        "phase_seconds": phase_totals,
        "summary": summarize(recorder.events),
    }


def pytest_sessionfinish(session, exitstatus):
    try:
        payload = _pipeline_trace_point()
    except Exception as exc:  # never fail the bench run over the trace
        payload = {"schema": 1, "error": f"{type(exc).__name__}: {exc}"}
    REPORTS_DIR.mkdir(exist_ok=True)
    BENCH_PIPELINE_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.fixture(scope="session")
def corpus_config() -> SyntheticCorpusConfig:
    """The paper-scale synthetic TDT2 configuration (7,578 docs)."""
    return SyntheticCorpusConfig(seed=1998)


@pytest.fixture(scope="session")
def generator(corpus_config) -> TDT2Generator:
    return TDT2Generator(corpus_config)


@pytest.fixture(scope="session")
def repository(generator):
    """The generated paper-scale corpus (generated once per session)."""
    return generator.generate()


@pytest.fixture(scope="session")
def windows(repository, corpus_config):
    """The six ~30-day windows of Experiment 2."""
    return split_into_windows(
        repository.documents(),
        corpus_config.window_days,
        end=corpus_config.total_days,
    )
