"""The dict-then-``json.dumps`` writer of checkpoints and journal lines.

The library composes both from per-document fragments it encodes once
(:mod:`repro.durability.records`). This is the direct form it must
match byte for byte: build the whole state as a dict, stamp it with
``payload_checksum`` (a ``sort_keys`` canonical dump), then
``json.dumps`` it again for the bytes written.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.core.incremental import IncrementalClusterer
from repro.corpus.document import Document
from repro.durability.atomic import CHECKSUM_FIELD, payload_checksum
from repro.persistence import document_record
from repro.text.vocabulary import Vocabulary


def _stamped(payload: Mapping[str, Any]) -> str:
    stamped = dict(payload)
    stamped[CHECKSUM_FIELD] = payload_checksum(payload)
    return json.dumps(stamped, ensure_ascii=False)


def checkpoint_text(
    clusterer: IncrementalClusterer,
    vocabulary: Vocabulary,
    sequence: Optional[int] = None,
) -> str:
    """The checkpoint file ``save_checkpoint`` writes for this state."""
    kmeans = clusterer.kmeans
    statistics = clusterer.statistics
    state: Dict[str, Any] = {
        "format": "repro-checkpoint",
        "version": 1,
        "model": {
            "half_life": clusterer.model.half_life,
            "life_span": clusterer.model.life_span,
        },
        "kmeans": {
            "k": kmeans.k,
            "delta": kmeans.delta,
            "max_iterations": kmeans.max_iterations,
            "seed": kmeans.seed,
            "engine": kmeans.engine.name,
            "criterion": kmeans.criterion,
            "rescue_outliers": kmeans.rescue_outliers,
        },
        "warm_start": clusterer.warm_start,
        "statistics_backend": statistics.backend_name,
        "now": statistics.now,
        "documents": [
            document_record(doc, vocabulary)
            for doc in statistics.documents()
        ],
        "assignment": clusterer.assignments(),
    }
    if sequence is not None:
        state["sequence"] = int(sequence)
    return _stamped(state)


def journal_header(base_sequence: int, base_now: Optional[float]) -> str:
    """The header line a journal based at ``base_sequence`` starts with."""
    return _stamped({
        "format": "repro-journal",
        "version": 1,
        "base_sequence": int(base_sequence),
        "base_now": base_now,
    }) + "\n"


def journal_line(
    sequence: int,
    at_time: float,
    documents: Sequence[Document],
    vocabulary: Vocabulary,
) -> str:
    """The line ``BatchJournal.append`` writes for one batch."""
    return _stamped({
        "sequence": int(sequence),
        "at_time": float(at_time),
        "documents": [
            document_record(doc, vocabulary) for doc in documents
        ],
    }) + "\n"
