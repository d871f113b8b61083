"""Estimating the number of clusters K (the paper's future work).

Section 7: "Future work also includes a method to estimate the
appropriate K value." This module provides that method for the paper's
objective: the clustering index ``G`` (Eq. 17) saturates once K reaches
the number of coherent topics — splitting a topic-pure cluster leaves
its contribution roughly unchanged, while merging distinct topics
depresses it. :func:`estimate_k` sweeps candidate K values and picks
the knee of the G(K) curve: the last candidate *before* the curve goes
flat — i.e. the K whose successor improves G by less than
``saturation`` relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .._validation import require_in_open_interval
from ..corpus.document import Document
from ..exceptions import ClusteringError, ConfigurationError
from ..forgetting.statistics import CorpusStatistics
from .kmeans import NoveltyKMeans


@dataclass(frozen=True)
class KEstimate:
    """Outcome of a K sweep.

    ``curve`` maps each candidate K to its converged clustering index;
    ``best_k`` is the knee; ``saturated`` is False when even the largest
    candidate still improved G markedly (the sweep should be widened).
    """

    best_k: int
    curve: Dict[int, float]
    saturated: bool

    def gains(self) -> List[Tuple[int, float]]:
        """Relative G gain of each candidate over its predecessor."""
        ks = sorted(self.curve)
        result: List[Tuple[int, float]] = []
        for previous, current in zip(ks, ks[1:]):
            g_prev = self.curve[previous]
            g_cur = self.curve[current]
            gain = (g_cur - g_prev) / g_prev if g_prev > 0 else float("inf")
            result.append((current, gain))
        return result


def estimate_k(
    documents: Sequence[Document],
    statistics: CorpusStatistics,
    candidates: Sequence[int] = (4, 8, 12, 16, 24, 32, 48),
    saturation: float = 0.05,
    seed: Optional[int] = 0,
    delta: float = 0.01,
    max_iterations: int = 30,
) -> KEstimate:
    """Pick K by the knee of the clustering-index curve.

    Parameters
    ----------
    candidates:
        Strictly increasing K values to try; each must be feasible
        (<= number of documents).
    saturation:
        Relative G-gain threshold below which the curve is considered
        flat (0.05 = "under 5% improvement per step").

    >>> estimate = estimate_k(docs, stats, candidates=(4, 8, 16))  # doctest: +SKIP
    >>> estimate.best_k  # doctest: +SKIP
    8
    """
    ks = list(candidates)
    if len(ks) < 2:
        raise ConfigurationError(
            "need at least two candidate K values to compare"
        )
    if ks != sorted(set(ks)):
        raise ConfigurationError(
            f"candidates must be strictly increasing, got {candidates!r}"
        )
    require_in_open_interval("saturation", saturation, 0.0, 1.0)
    n_docs = len(documents)
    if ks[-1] > n_docs:
        raise ClusteringError(
            f"largest candidate K ({ks[-1]}) exceeds the document "
            f"count ({n_docs})"
        )

    curve: Dict[int, float] = {}
    for k in ks:
        kmeans = NoveltyKMeans(
            k=k, delta=delta, max_iterations=max_iterations,
            seed=seed,
        )
        result = kmeans.fit(documents, statistics)
        curve[k] = result.clustering_index

    best_k = ks[-1]
    saturated = False
    for previous, current in zip(ks, ks[1:]):
        g_prev, g_cur = curve[previous], curve[current]
        if g_prev <= 0:
            continue
        if (g_cur - g_prev) / g_prev < saturation:
            best_k = previous
            saturated = True
            break
    return KEstimate(best_k=best_k, curve=curve, saturated=saturated)
