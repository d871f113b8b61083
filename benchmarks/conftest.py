"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper.
Regenerated artifacts are registered through the ``reporter`` fixture:
they are written to ``benchmarks/reports/<name>.txt`` and echoed into
the terminal summary, so ``pytest benchmarks/ --benchmark-only`` leaves
both machine-readable files and a human-readable transcript.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro import SyntheticCorpusConfig, TDT2Generator, split_into_windows

# bench_ablation_representatives imports its reference Cluster from the
# test package at the repository root
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

REPORTS_DIR = Path(__file__).parent / "reports"

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
