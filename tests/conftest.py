"""Shared fixtures and corpus builders for the test suite."""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

import pytest

from repro import (
    CorpusStatistics,
    Document,
    DocumentRepository,
    ForgettingModel,
)

TOPIC_VOCABULARY: Dict[str, str] = {
    "sports": "game team score player win match coach league goal season",
    "finance": "market stock bank trade economy price investor fund profit rate",
    "politics": "election vote party candidate government senate law president bill campaign",
    "science": "research study experiment laboratory physics theory data discovery quantum energy",
}

BACKGROUND_WORDS = "report town national morning announcement".split()


def make_document(
    doc_id: str,
    timestamp: float,
    term_counts: Dict[int, int],
    topic_id: Optional[str] = None,
) -> Document:
    """Terse :class:`Document` constructor for unit tests."""
    return Document(
        doc_id=doc_id,
        timestamp=timestamp,
        term_counts=term_counts,
        topic_id=topic_id,
    )


def build_topic_repository(
    days: int = 10,
    docs_per_topic_per_day: int = 2,
    topics: Optional[Sequence[str]] = None,
    seed: int = 0,
    tokens_per_doc: int = 30,
) -> DocumentRepository:
    """A small labelled news stream with clearly separated topics.

    Documents of the same topic share a 10-word vocabulary (plus a few
    background words), so any sane clustering separates the topics.
    """
    rng = random.Random(seed)
    repo = DocumentRepository()
    chosen = list(topics) if topics is not None else list(TOPIC_VOCABULARY)
    serial = 0
    for day in range(days):
        for topic in chosen:
            words = TOPIC_VOCABULARY[topic].split()
            for _ in range(docs_per_topic_per_day):
                tokens = rng.choices(words, k=tokens_per_doc)
                tokens += rng.choices(BACKGROUND_WORDS, k=5)
                repo.add_text(
                    doc_id=f"d{serial:04d}",
                    timestamp=float(day) + rng.random() * 0.9,
                    text=" ".join(tokens),
                    topic_id=topic,
                )
                serial += 1
    return repo


@pytest.fixture
def topic_repository() -> DocumentRepository:
    """Default 4-topic, 10-day, 80-document stream."""
    return build_topic_repository()


@pytest.fixture
def small_model() -> ForgettingModel:
    """The paper's Experiment 1 model: β=7 days, γ=14 days."""
    return ForgettingModel(half_life=7.0, life_span=14.0)


@pytest.fixture
def topic_statistics(topic_repository, small_model) -> CorpusStatistics:
    """Statistics over the full topic stream, clock at day 10."""
    return CorpusStatistics.from_scratch(
        small_model, topic_repository.documents(), at_time=10.0
    )
