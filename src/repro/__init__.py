"""repro — Novelty-based incremental document clustering (ICDE 2006).

A full reproduction of Khy, Ishikawa & Kitagawa, *"Novelty-based
Incremental Document Clustering for On-line Documents"* (ICDE 2006):
the document forgetting model, the novelty-based similarity, the
extended K-means with cluster representatives and outlier handling, the
incremental statistics update, baselines (classic K-means, INCR, GAC,
F²ICM), the evaluation protocol, and a synthetic TDT2-like corpus
generator driving every experiment in the paper.

Quickstart — the supported entry point is :func:`repro.open_stream`,
which returns a streaming session whose single writer ingests batches
and whose readers query immutable versioned snapshots::

    import repro

    with repro.open_stream(k=8, half_life=7.0, life_span=14.0,
                           seed=0) as session:
        session.add(day_one_docs, at_time=0.0)
        session.add(day_two_docs, at_time=1.0)
        snapshot = session.flush()
        print(snapshot.stats())

For batch experiments that need the bare pipeline, use
:func:`repro.api.build_clusterer` (direct ``IncrementalClusterer(...)``
construction outside the library is linted against — reprolint REP003).
"""

from .exceptions import (
    AssignmentMismatchError,
    ClusteringError,
    ConfigurationError,
    DuplicateDocumentError,
    EmptyCorpusError,
    JournalError,
    NotFittedError,
    ReproError,
    ServiceClosedError,
    ServiceDegradedError,
    UnknownDocumentError,
    VocabularyFrozenError,
)
from .text import PorterStemmer, TextPipeline, Tokenizer, Vocabulary
from .vectors import NoveltyTfidfWeighter
from .corpus import (
    Document,
    DocumentRepository,
    SyntheticCorpusConfig,
    TDT2Generator,
    TimeWindow,
    TopicSpec,
    iter_batches,
    load_jsonl,
    replay,
    save_jsonl,
    split_into_windows,
)
from .forgetting import CorpusStatistics, ForgettingModel, FrozenStatistics
from .core import (
    ClusterLabel,
    ClusteringResult,
    Engine,
    IncrementalClusterer,
    KEstimate,
    NonIncrementalClusterer,
    NoveltyKMeans,
    estimate_k,
    label_clustering,
)
from .baselines.similarity import NoveltySimilarity
from .persistence import CheckpointError, load_checkpoint, save_checkpoint
from .durability import (
    BatchJournal,
    Checkpointer,
    RecoveryResult,
    recover,
)
from .service import (
    ClusterInfo,
    ClusterService,
    ClusterSnapshot,
    QueryAssignment,
    SearchHit,
    ServiceHTTPServer,
    SnapshotStats,
)
from .api import StreamSession, build_clusterer, open_stream
from .analysis import BurstInterval, detect_bursts
from .eval import (
    ContingencyTable,
    MarkedCluster,
    WindowEvaluation,
    evaluate_clustering,
    mark_clusters,
    normalized_mutual_information,
    purity,
    recency_weighted_micro_f1,
)
from .eval.significance import BootstrapInterval, bootstrap_micro_f1
from .eval.latency import DetectionRecorder, LatencyReport, first_arrivals

__version__ = "1.0.0"

__all__ = [
    # exceptions
    "ReproError",
    "ConfigurationError",
    "EmptyCorpusError",
    "UnknownDocumentError",
    "DuplicateDocumentError",
    "AssignmentMismatchError",
    "ClusteringError",
    "NotFittedError",
    "VocabularyFrozenError",
    "ServiceClosedError",
    "ServiceDegradedError",
    # text
    "Tokenizer",
    "PorterStemmer",
    "TextPipeline",
    "Vocabulary",
    # vectors
    "NoveltyTfidfWeighter",
    # corpus
    "Document",
    "DocumentRepository",
    "TimeWindow",
    "split_into_windows",
    "load_jsonl",
    "save_jsonl",
    "iter_batches",
    "replay",
    "SyntheticCorpusConfig",
    "TDT2Generator",
    "TopicSpec",
    # forgetting
    "ForgettingModel",
    "CorpusStatistics",
    "FrozenStatistics",
    # core
    "NoveltySimilarity",
    "ClusteringResult",
    "Engine",
    "NoveltyKMeans",
    "IncrementalClusterer",
    "NonIncrementalClusterer",
    "KEstimate",
    "estimate_k",
    "ClusterLabel",
    "label_clustering",
    # eval
    "ContingencyTable",
    "MarkedCluster",
    "WindowEvaluation",
    "mark_clusters",
    "evaluate_clustering",
    "purity",
    "normalized_mutual_information",
    "recency_weighted_micro_f1",
    "BootstrapInterval",
    "bootstrap_micro_f1",
    "DetectionRecorder",
    "LatencyReport",
    "first_arrivals",
    # persistence
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    # durability
    "JournalError",
    "BatchJournal",
    "Checkpointer",
    "RecoveryResult",
    "recover",
    # service / api
    "open_stream",
    "build_clusterer",
    "StreamSession",
    "ClusterService",
    "ClusterSnapshot",
    "ClusterInfo",
    "QueryAssignment",
    "SearchHit",
    "SnapshotStats",
    "ServiceHTTPServer",
    # analysis
    "BurstInterval",
    "detect_bursts",
    "__version__",
]
