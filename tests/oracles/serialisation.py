"""The dict-then-``json.dumps`` writer of checkpoints and journal lines.

The library composes both from fragments it encodes once — one per
document, one per term (:mod:`repro.durability.records`). This is the
direct form of format version 2 it must match byte for byte: build the
whole state as a dict, ``json.dumps`` it, and close the text with the
checksum, sha256 over the bytes before the ``checksum`` member.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.incremental import IncrementalClusterer
from repro.corpus.document import Document
from repro.text.vocabulary import Vocabulary


def _stamped(payload: Mapping[str, Any]) -> str:
    body = json.dumps(payload, ensure_ascii=False)[:-1]
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + ", " + json.dumps({"checksum": f"sha256:{digest}"})[1:]


def document_record(doc: Document) -> Dict[str, Any]:
    """A version-2 record: the row in term ids, in the row's order."""
    return {
        "doc_id": doc.doc_id,
        "timestamp": doc.timestamp,
        "topic_id": doc.topic_id,
        "source": doc.source,
        "title": doc.title,
        "term_ids": [int(term_id) for term_id in doc.term_ids],
        "counts": [int(count) for count in doc.counts],
    }


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
        "version": 2,
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
        "terms": [vocabulary.term(term_id)
                  for term_id in range(len(vocabulary))],
        "documents": [
            document_record(doc) for doc in statistics.documents()
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
        "version": 2,
        "base_sequence": int(base_sequence),
        "base_now": base_now,
    }) + "\n"


def journal_line(
    sequence: int,
    at_time: float,
    terms: List[str],
    documents: Sequence[Document],
) -> str:
    """The line ``BatchJournal.append`` writes for one batch; ``terms``
    are the vocabulary terms added since the journal's previous line
    (every term, for its first line)."""
    return _stamped({
        "sequence": int(sequence),
        "at_time": float(at_time),
        "terms": terms,
        "documents": [document_record(doc) for doc in documents],
    }) + "\n"
