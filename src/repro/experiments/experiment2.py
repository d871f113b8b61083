"""Experiment 2 — "what are recent topics?" (Tables 2, 4; Figures 1-4).

Paper setup (Section 6.2): the 7,578-document, 96-topic TDT2 subset is
split into six ~30-day windows. Each window is clustered independently
with the **non-incremental** version (the paper argues the incremental
and non-incremental results are close, and only the final per-window
result matters here) at K=24, life span γ=30 days, for two half-life
values β ∈ {7, 30} days. Each clustering is evaluated by the marked-
cluster precision/recall protocol (Section 6.2.3) producing the
micro/macro-averaged F1 of Table 4 and the per-cluster bars of
Figures 1-4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..corpus.document import Document
from ..corpus.synthetic import (
    SyntheticCorpusConfig,
    TABLE2_WINDOW_DOCS,
    TABLE2_WINDOW_TOPICS,
    TDT2Generator,
)
from ..corpus.timewindow import TimeWindow, split_into_windows
from ..core.kmeans import NoveltyKMeans
from ..core.result import ClusteringResult
from ..eval.metrics import WindowEvaluation, evaluate_clustering
from ..forgetting.model import ForgettingModel
from ..forgetting.statistics import CorpusStatistics
from .reporting import render_table

#: Paper Table 4: (window, beta) -> (micro F1, macro F1).
PAPER_TABLE4: Dict[Tuple[int, float], Tuple[float, float]] = {
    (0, 7.0): (0.34, 0.42), (0, 30.0): (0.52, 0.59),
    (1, 7.0): (0.40, 0.50), (1, 30.0): (0.55, 0.67),
    (2, 7.0): (0.32, 0.37), (2, 30.0): (0.53, 0.61),
    (3, 7.0): (0.39, 0.48), (3, 30.0): (0.53, 0.59),
    (4, 7.0): (0.39, 0.50), (4, 30.0): (0.53, 0.57),
    (5, 7.0): (0.51, 0.55), (5, 30.0): (0.60, 0.66),
}


@dataclass
class ExperimentTwoConfig:
    """Parameters of the quality experiment (paper defaults).

    ``pipeline`` selects how each window is clustered:

    * ``"non-incremental"`` (paper §6.2.2): one batch per window,
      statistics built from scratch, cold-started clustering;
    * ``"incremental"``: the window replayed as ``batch_days``-wide
      on-line batches through :class:`IncrementalClusterer` — the
      deployment-shaped variant the paper argues gives "roughly close"
      results.
    """

    seed: int = 1998
    k: int = 24
    betas: Tuple[float, ...] = (7.0, 30.0)
    life_span: float = 30.0
    delta: float = 0.01
    max_iterations: int = 30
    clustering_seed: int = 3
    pipeline: str = "non-incremental"
    batch_days: float = 1.0
    corpus: Optional[SyntheticCorpusConfig] = None

    def __post_init__(self) -> None:
        if self.pipeline not in ("non-incremental", "incremental"):
            raise ValueError(
                f"pipeline must be 'non-incremental' or 'incremental', "
                f"got {self.pipeline!r}"
            )

    def corpus_config(self) -> SyntheticCorpusConfig:
        if self.corpus is not None:
            return self.corpus
        return SyntheticCorpusConfig(seed=self.seed)


@dataclass(frozen=True)
class WindowRun:
    """One (window, β) clustering with its evaluation."""

    window_index: int
    beta: float
    result: ClusteringResult
    evaluation: WindowEvaluation


@dataclass
class ExperimentTwoResult:
    """All window runs plus the corpus windows they ran over."""

    windows: List[TimeWindow]
    runs: Dict[Tuple[int, float], WindowRun] = field(default_factory=dict)

    def run(self, window_index: int, beta: float) -> WindowRun:
        return self.runs[(window_index, beta)]

    # -- Table 2 ------------------------------------------------------------

    def table2_rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        labels = [
            "No. of docs", "No. of topics", "Min. topic size",
            "Max. topic size", "Med. topic size", "Mean topic size",
        ]
        stats = [w.statistics() for w in self.windows]
        keys = [
            "documents", "topics", "min_topic_size",
            "max_topic_size", "median_topic_size", "mean_topic_size",
        ]
        for label, key in zip(labels, keys):
            row: List[object] = [label]
            for s in stats:
                value = s[key]
                row.append(
                    f"{value:.2f}" if isinstance(value, float)
                    and value != int(value) else int(value)
                )
            rows.append(row)
        return rows

    def render_table2(self) -> str:
        headers = ["Statistic"] + [f"W{w.index + 1}" for w in self.windows]
        measured = render_table(
            headers, self.table2_rows(),
            title="Table 2 — time-window statistics (measured)",
        )
        paper = (
            f"paper: docs={list(TABLE2_WINDOW_DOCS)}, "
            f"topics={list(TABLE2_WINDOW_TOPICS)}"
        )
        return measured + "\n" + paper

    # -- Table 4 ------------------------------------------------------------

    def table4_rows(self, betas: Sequence[float]) -> List[List[str]]:
        rows: List[List[str]] = []
        for window in self.windows:
            micro = []
            macro = []
            for beta in betas:
                run = self.runs.get((window.index, beta))
                if run is None:
                    micro.append("--")
                    macro.append("--")
                else:
                    micro.append(f"{run.evaluation.micro_f1:.2f}")
                    macro.append(f"{run.evaluation.macro_f1:.2f}")
            paper = [
                PAPER_TABLE4.get((window.index, beta)) for beta in betas
            ]
            paper_micro = " / ".join(
                f"{p[0]:.2f}" if p else "--" for p in paper
            )
            paper_macro = " / ".join(
                f"{p[1]:.2f}" if p else "--" for p in paper
            )
            rows.append([
                f"window {window.index + 1}",
                " / ".join(micro),
                paper_micro,
                " / ".join(macro),
                paper_macro,
            ])
        return rows

    def render_table4(self, betas: Sequence[float] = (7.0, 30.0)) -> str:
        beta_label = " / ".join(f"β={int(b)}" for b in betas)
        return render_table(
            [
                "Time window",
                f"micro F1 ({beta_label})",
                "micro F1 (paper)",
                f"macro F1 ({beta_label})",
                "macro F1 (paper)",
            ],
            self.table4_rows(betas),
            title="Table 4 — micro/macro-average F1 (measured vs paper)",
        )


def run_window(
    documents: Sequence[Document],
    at_time: float,
    beta: float,
    life_span: float = 30.0,
    k: int = 24,
    delta: float = 0.01,
    max_iterations: int = 30,
    seed: Optional[int] = 3,
) -> Tuple[ClusteringResult, WindowEvaluation]:
    """Cluster one window non-incrementally and evaluate it.

    ``at_time`` is the clustering timestamp (normally the window end,
    matching the on-line situation of "clustering triggered when the
    window's news has arrived").
    """
    model = ForgettingModel(half_life=beta, life_span=life_span)
    statistics = CorpusStatistics.from_scratch(model, documents, at_time)
    kmeans = NoveltyKMeans(
        k=k,
        delta=delta,
        max_iterations=max_iterations,
        seed=seed,
    )
    result = kmeans.fit(statistics.documents(), statistics)
    truth = {doc.doc_id: doc.topic_id for doc in documents}
    evaluation = evaluate_clustering(result.clusters, truth)
    return result, evaluation


def run_window_incremental(
    documents: Sequence[Document],
    window_start: float,
    beta: float,
    life_span: float = 30.0,
    k: int = 24,
    delta: float = 0.01,
    max_iterations: int = 30,
    seed: Optional[int] = 3,
    batch_days: float = 1.0,
) -> Tuple[ClusteringResult, WindowEvaluation]:
    """Cluster one window *on-line*: daily batches with warm starts.

    The evaluation scores the final batch's clustering against the full
    window's labels, mirroring "the final result when we have processed
    all the documents in a time window" (paper §6.2.2).
    """
    from ..core.incremental import IncrementalClusterer
    from ..corpus.streams import replay

    model = ForgettingModel(half_life=beta, life_span=life_span)
    clusterer = IncrementalClusterer(
        model, k=k, delta=delta, max_iterations=max_iterations,
        seed=seed,
    )
    result = replay(
        clusterer, documents, batch_days=batch_days, origin=window_start
    )
    if result is None:
        raise ValueError("window contained no documents")
    truth = {doc.doc_id: doc.topic_id for doc in documents}
    evaluation = evaluate_clustering(result.clusters, truth)
    return result, evaluation


def run_experiment2(
    config: Optional[ExperimentTwoConfig] = None,
    windows: Optional[Sequence[int]] = None,
) -> ExperimentTwoResult:
    """Run Experiment 2 over all (or selected) windows and betas."""
    if config is None:
        config = ExperimentTwoConfig()
    corpus_config = config.corpus_config()
    generator = TDT2Generator(corpus_config)
    repository = generator.generate()
    all_windows = split_into_windows(
        repository.documents(),
        corpus_config.window_days,
        end=corpus_config.total_days,
    )
    result = ExperimentTwoResult(windows=list(all_windows))
    selected = (
        set(windows) if windows is not None
        else {w.index for w in all_windows}
    )
    for window in all_windows:
        if window.index not in selected or not window.documents:
            continue
        for beta in config.betas:
            if config.pipeline == "incremental":
                clustering, evaluation = run_window_incremental(
                    window.documents,
                    window_start=window.start,
                    beta=beta,
                    life_span=config.life_span,
                    k=config.k,
                    delta=config.delta,
                    max_iterations=config.max_iterations,
                    seed=config.clustering_seed,
                    batch_days=config.batch_days,
                )
            else:
                clustering, evaluation = run_window(
                    window.documents,
                    at_time=window.end,
                    beta=beta,
                    life_span=config.life_span,
                    k=config.k,
                    delta=config.delta,
                    max_iterations=config.max_iterations,
                    seed=config.clustering_seed,
                )
            result.runs[(window.index, beta)] = WindowRun(
                window_index=window.index,
                beta=beta,
                result=clustering,
                evaluation=evaluation,
            )
    return result
