"""Benchmark inputs: the raw-text stream and the held-out query bodies.

Inputs are made from the workload seed only. The TDT2-like generator
writes into a :class:`CapturingRepository`, which keeps the raw texts
instead of tokenizing them, so the program under test receives nothing
but generated text: the producer tokenizes and interns it while timed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.corpus.document import Document
from repro.corpus.repository import DocumentRepository
from repro.corpus.synthetic import SyntheticCorpusConfig, TDT2Generator

Record = Dict[str, object]

#: Held-out query bodies come from a smaller corpus: they only need to
#: be realistic text the service has never ingested.
HELD_OUT_DOCUMENTS = 1000

#: Share of reads that are text ``assign``; the rest are ``top_clusters``.
ASSIGN_SHARE = 0.9


class CapturingRepository(DocumentRepository):
    """Records each generated document as a raw-text record."""

    def __init__(self) -> None:
        super().__init__()
        self.records: List[Record] = []

    def add_text(  # type: ignore[override]
        self,
        doc_id: str,
        timestamp: float,
        text: str,
        topic_id: Optional[str] = None,
        source: Optional[str] = None,
        title: Optional[str] = None,
    ) -> None:
        self.records.append({
            "doc_id": doc_id, "timestamp": float(timestamp),
            "topic_id": topic_id, "text": text,
        })


def generate_records(
    seed: int, total_documents: Optional[int] = None
) -> List[Record]:
    """Raw-text records of the stream generated from ``seed``, in time order."""
    if total_documents is None:
        config = SyntheticCorpusConfig(seed=seed)
    else:
        config = SyntheticCorpusConfig(
            seed=seed, total_documents=total_documents
        )
    repository = CapturingRepository()
    TDT2Generator(config).generate(repository=repository)
    return repository.records


def jsonl_between(
    records: List[Record], start: float, end: float
) -> List[str]:
    """JSONL lines of the records with ``start <= timestamp < end``."""
    return [
        json.dumps(r) + "\n" for r in records
        if start <= float(r["timestamp"]) < end  # type: ignore[arg-type]
    ]


def truth(records: List[Record]) -> Dict[str, Optional[str]]:
    """Ground-truth topic of every document id."""
    return {
        str(r["doc_id"]): None if r["topic_id"] is None else str(r["topic_id"])
        for r in records
    }


def to_document(record: Record, term_counts: Dict[int, int]) -> Document:
    return Document(
        doc_id=str(record["doc_id"]),
        timestamp=float(record["timestamp"]),  # type: ignore[arg-type]
        term_counts=term_counts,
        topic_id=None if record["topic_id"] is None else str(record["topic_id"]),
    )


@dataclass(frozen=True)
class Read:
    kind: str  # "assign" (text) or "top" (top_clusters(10))
    text: str = ""


def read_plan(seed: int, count: int) -> List[Read]:
    """``count`` reads: text assigns of held-out bodies and top-10 lists.

    The bodies come from the corpus generated at ``seed + 1``, so no
    query text was ingested.
    """
    bodies = [
        str(r["text"])
        for r in generate_records(seed + 1, HELD_OUT_DOCUMENTS)
    ]
    rng = random.Random(seed)
    return [
        Read("assign", rng.choice(bodies))
        if rng.random() < ASSIGN_SHARE else Read("top")
        for _ in range(count)
    ]
