"""Experiment 1 — incremental vs non-incremental computation time (Table 1).

Paper setup: TDT2 Jan 4 - Jan 18 (4,327 docs), K=32, β=7 days, γ=14 days
(λ≈0.9, ε≈0.25). The non-incremental run recomputes statistics and
clusters the whole 15-day span from scratch; the incremental run assumes
the Jan 4-17 state exists and processes only the final day (205 docs),
reusing statistics and the previous clustering.

Here the stream is the synthetic TDT2 analogue restricted to its first
``days`` days, optionally fattened with unlabeled background documents
(the paper's 64k-doc stream is ~9× denser than the labelled subset).
Absolute seconds differ from the paper's 1998-era Ruby/Pentium 4 numbers
by construction; the *ratios* (incremental ≪ non-incremental for both
phases) are the reproduction target.
"""

from __future__ import annotations

import time as time_module
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..corpus.synthetic import SyntheticCorpusConfig, TDT2Generator
from ..core.incremental import IncrementalClusterer, NonIncrementalClusterer
from ..forgetting.model import ForgettingModel
from .reporting import format_seconds, render_table

#: Paper Table 1 (for side-by-side reporting): seconds.
PAPER_TABLE1 = {
    ("non-incremental", "statistics"): 25 * 60 + 21,
    ("non-incremental", "clustering"): 58 * 60 + 17,
    ("incremental", "statistics"): 1 * 60 + 45,
    ("incremental", "clustering"): 15 * 60 + 25,
}


@dataclass
class ExperimentOneConfig:
    """Parameters of the timing experiment (paper defaults)."""

    seed: int = 1998
    days: int = 15
    k: int = 32
    half_life: float = 7.0
    life_span: float = 14.0
    delta: float = 0.01
    max_iterations: int = 30
    unlabeled_per_day: float = 0.0
    corpus: Optional[SyntheticCorpusConfig] = None

    def corpus_config(self) -> SyntheticCorpusConfig:
        if self.corpus is not None:
            return self.corpus
        return SyntheticCorpusConfig(
            seed=self.seed, unlabeled_per_day=self.unlabeled_per_day
        )


@dataclass
class ExperimentOneResult:
    """Measured timings plus the run metadata behind them."""

    total_documents: int
    last_day_documents: int
    non_incremental: Dict[str, float]
    incremental: Dict[str, float]
    last_day: int = 0
    incremental_warmup: Dict[str, float] = field(default_factory=dict)

    def speedup(self, phase: str) -> float:
        """Non-incremental / incremental time for ``phase``."""
        denom = self.incremental[phase]
        if denom <= 0.0:
            return float("inf")
        return self.non_incremental[phase] / denom

    def rows(self) -> List[Tuple[str, str, str, str]]:
        """Table 1 rows: approach, dataset, stat time, clustering time."""
        return [
            (
                "Non-incremental",
                f"day0-day{self.last_day}",
                format_seconds(self.non_incremental["statistics"]),
                format_seconds(self.non_incremental["clustering"]),
            ),
            (
                "Incremental",
                f"day{self.last_day}",
                format_seconds(self.incremental["statistics"]),
                format_seconds(self.incremental["clustering"]),
            ),
        ]

    def render(self) -> str:
        lines = [
            render_table(
                ["Approach", "Dataset", "Statistics Updating", "Clustering"],
                self.rows(),
                title="Table 1 — computation times (measured)",
            ),
            "",
            f"documents: {self.total_documents} total, "
            f"{self.last_day_documents} on the last day",
            f"speedup: statistics ×{self.speedup('statistics'):.1f}, "
            f"clustering ×{self.speedup('clustering'):.1f}",
            (
                f"incremental warm-up (days 0-{self.last_day - 1} "
                f"combined): statistics "
                f"{self.incremental_warmup.get('statistics', 0.0):.3f}s, "
                f"clustering "
                f"{self.incremental_warmup.get('clustering', 0.0):.3f}s"
            ),
            "",
            "paper (Ruby, Pentium 4 3.2GHz, 4327 docs): "
            "non-incr 25min21s/58min17s, incr 1min45s/15min25s "
            "(×14.5 / ×3.8)",
        ]
        return "\n".join(lines)


def run_experiment1(
    config: Optional[ExperimentOneConfig] = None,
) -> ExperimentOneResult:
    """Run the full Table 1 comparison; see module docstring."""
    if config is None:
        config = ExperimentOneConfig()
    generator = TDT2Generator(config.corpus_config())
    repository = generator.generate()
    docs = [
        doc for doc in repository.documents()
        if doc.timestamp < config.days
    ]
    docs.sort(key=lambda d: d.timestamp)
    model = ForgettingModel(
        half_life=config.half_life, life_span=config.life_span
    )

    day_batches = [
        [d for d in docs if int(d.timestamp) == day]
        for day in range(config.days)
    ]
    last_day = config.days - 1

    # Non-incremental: statistics + clustering from scratch over all days.
    non_incremental = NonIncrementalClusterer(
        model,
        k=config.k,
        delta=config.delta,
        max_iterations=config.max_iterations,
        seed=config.seed,
    )
    non_incremental.process_batch(docs, at_time=float(config.days))
    non_result = non_incremental.last_result
    assert non_result is not None

    # Incremental: build state through day N-1, then time day N only.
    incremental = IncrementalClusterer(
        model,
        k=config.k,
        delta=config.delta,
        max_iterations=config.max_iterations,
        seed=config.seed,
    )
    warm_stats = warm_cluster = 0.0
    for day in range(last_day):
        if not day_batches[day]:
            incremental.statistics.advance_to(float(day + 1))
            continue
        warm = incremental.process_batch(
            day_batches[day], at_time=float(day + 1)
        )
        warm_stats += warm.timings["statistics"]
        warm_cluster += warm.timings["clustering"]
    final = incremental.process_batch(
        day_batches[last_day], at_time=float(config.days)
    )

    return ExperimentOneResult(
        total_documents=len(docs),
        last_day_documents=len(day_batches[last_day]),
        non_incremental={
            "statistics": non_result.timings["statistics"],
            "clustering": non_result.timings["clustering"],
        },
        incremental={
            "statistics": final.timings["statistics"],
            "clustering": final.timings["clustering"],
        },
        last_day=last_day,
        incremental_warmup={
            "statistics": warm_stats,
            "clustering": warm_cluster,
        },
    )


def statistics_update_timings(
    config: Optional[ExperimentOneConfig] = None,
) -> Tuple[float, float]:
    """Micro-version of Experiment 1 timing only the statistics phase.

    Returns ``(non_incremental_seconds, incremental_seconds)``; used by
    the pytest-benchmark harness where clustering would dominate.
    """
    if config is None:
        config = ExperimentOneConfig()
    generator = TDT2Generator(config.corpus_config())
    repository = generator.generate()
    docs = [
        doc for doc in repository.documents()
        if doc.timestamp < config.days
    ]
    model = ForgettingModel(
        half_life=config.half_life, life_span=config.life_span
    )
    last_day = config.days - 1

    from ..forgetting.statistics import CorpusStatistics

    begin = time_module.perf_counter()
    CorpusStatistics.from_scratch(model, docs, at_time=float(config.days))
    non_incremental_seconds = time_module.perf_counter() - begin

    stats = CorpusStatistics(model)
    old_docs = [d for d in docs if d.timestamp < last_day]
    new_docs = [d for d in docs if d.timestamp >= last_day]
    stats.observe(old_docs, at_time=float(last_day))
    begin = time_module.perf_counter()
    stats.observe(new_docs, at_time=float(config.days))
    stats.expire()
    incremental_seconds = time_module.perf_counter() - begin
    return non_incremental_seconds, incremental_seconds
