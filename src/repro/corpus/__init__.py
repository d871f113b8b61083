"""Corpus substrate: documents, repositories, time windows, loaders, and
the synthetic TDT2-like news-stream generator used by the experiments."""

from .document import Document
from .repository import DocumentRepository
from .timewindow import TimeWindow, split_into_windows
from .loaders import load_jsonl, save_jsonl
from .streams import iter_batches, replay
from .synthetic import SyntheticCorpusConfig, TDT2Generator, TopicSpec

__all__ = [
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
]
