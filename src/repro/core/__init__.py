"""The paper's primary contribution: the extended K-means with cluster
representatives over novelty-based similarity, and the incremental
clustering pipeline, plus the readers of its frozen views (labels)."""

from .engines import Engine
from .result import ClusteringResult
from .kmeans import NoveltyKMeans
from .incremental import IncrementalClusterer, NonIncrementalClusterer
from .kestimate import KEstimate, estimate_k
from .labeling import (
    ClusterLabel,
    corpus_term_counts,
    discriminative_terms,
    label_clustering,
    medoid_document,
    representative_terms,
)

__all__ = [
    "ClusteringResult",
    "Engine",
    "NoveltyKMeans",
    "IncrementalClusterer",
    "NonIncrementalClusterer",
    "KEstimate",
    "estimate_k",
    "ClusterLabel",
    "label_clustering",
    "representative_terms",
    "discriminative_terms",
    "corpus_term_counts",
    "medoid_document",
]
