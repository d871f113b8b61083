"""The dict-then-``json.dumps`` writer of checkpoints and journal lines.

The library composes both from fragments it encodes once — one per
document, one per term (:mod:`repro.durability.records`). This is the
direct form of format version 3 it must match byte for byte: build the
whole state as a dict, ``json.dumps`` it, and close the text with the
checksum, sha256 over the bytes before the ``checksum`` member. Rows
and the assignment are packed here with :mod:`struct`, from the
documents' and the clusterer's public views, not with the library's
codec.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.incremental import IncrementalClusterer
from repro.corpus.document import Document
from repro.text.vocabulary import Vocabulary


def stamped(payload: Mapping[str, Any]) -> str:
    """``payload`` as ``json.dumps`` writes it, closed with its byte
    checksum member."""
    body = json.dumps(payload, ensure_ascii=False)[:-1]
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return body + ", " + json.dumps({"checksum": f"sha256:{digest}"})[1:]


def _packed(*lists: Sequence[int]) -> str:
    values = [int(value) for values in lists for value in values]
    return base64.b64encode(
        struct.pack(f"<{len(values)}i", *values)
    ).decode("ascii")


def document_record(doc: Document) -> Dict[str, Any]:
    """A version-3 record: the row's term ids, then its counts, as
    packed little-endian int32, in the row's order."""
    return {
        "doc_id": doc.doc_id,
        "timestamp": doc.timestamp,
        "topic_id": doc.topic_id,
        "source": doc.source,
        "title": doc.title,
        "row": _packed(doc.term_ids, doc.counts),
    }


def assignment_record(clusterer: IncrementalClusterer) -> str:
    """One cluster id per active document, in ``statistics.documents()``
    order, −1 for none, packed as the rows are."""
    assignment = clusterer.assignments()
    return _packed([
        assignment.get(doc_id, -1)
        for doc_id in clusterer.statistics.doc_ids()
    ])


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
        "version": 3,
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
        "assignment": assignment_record(clusterer),
    }
    if sequence is not None:
        state["sequence"] = int(sequence)
    return stamped(state)


def journal_header(base_sequence: int) -> str:
    """The header line a journal based at ``base_sequence`` starts with."""
    return stamped({
        "format": "repro-journal",
        "version": 3,
        "base_sequence": int(base_sequence),
    }) + "\n"


def journal_line(
    sequence: int,
    at_time: float,
    terms: List[str],
    documents: Sequence[Document],
    clusterer: IncrementalClusterer,
) -> str:
    """The line the ``Checkpointer`` logs for one batch; ``terms`` are
    the vocabulary terms added since the log's previous line (every
    term, for its first line), and ``clusterer`` is the state after the
    batch."""
    return stamped({
        "sequence": int(sequence),
        "at_time": float(at_time),
        "terms": terms,
        "documents": [document_record(doc) for doc in documents],
        "assignment": assignment_record(clusterer),
    }) + "\n"
