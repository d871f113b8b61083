"""Evaluation substrate: contingency tables, cluster-topic marking,
micro/macro-averaged F1 (paper Section 6.2.3)."""

from .contingency import ContingencyTable
from .matching import MarkedCluster, mark_clusters
from .metrics import WindowEvaluation, evaluate_clustering
from .significance import BootstrapInterval, bootstrap_micro_f1
from .latency import (
    DetectionRecorder,
    LatencyReport,
    TopicLatency,
    first_arrivals,
)
from .external import (
    normalized_mutual_information,
    purity,
    recency_weighted_micro_f1,
)

__all__ = [
    "ContingencyTable",
    "MarkedCluster",
    "mark_clusters",
    "WindowEvaluation",
    "evaluate_clustering",
    "purity",
    "normalized_mutual_information",
    "recency_weighted_micro_f1",
    "BootstrapInterval",
    "bootstrap_micro_f1",
    "DetectionRecorder",
    "LatencyReport",
    "TopicLatency",
    "first_arrivals",
]
