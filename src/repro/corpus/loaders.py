"""Serialisation of document streams to/from JSON Lines.

The on-disk format keeps raw term counts keyed by *term string* (not id)
so files are portable across repositories with different vocabularies::

    {"doc_id": "d1", "timestamp": 3.5, "topic_id": "20001",
     "terms": {"asian": 2, "crisi": 1}, "source": "APW", "title": "..."}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

import numpy as np

from ..text import TextPipeline, Vocabulary
from .document import Document, check_identity

PathLike = Union[str, Path]


def record_terms(doc: Document, vocabulary: Vocabulary) -> Dict[str, int]:
    """``doc``'s row as a record's ``terms`` field: ``term -> count`` in
    ascending term-id order. Raises ``ValueError`` naming the smallest
    id that ``vocabulary`` does not hold (ids are never negative)."""
    ids = doc.term_ids
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order].tolist()
    size = len(vocabulary)
    if sorted_ids and sorted_ids[-1] >= size:
        term_id = next(t for t in sorted_ids if t >= size)
        raise ValueError(
            f"document {doc.doc_id!r} holds term id {term_id}, which is "
            f"not in the vocabulary (size {size})"
        )
    return dict(zip(map(vocabulary.term, sorted_ids),
                    doc.counts[order].tolist()))


def save_jsonl(
    documents: Iterable[Document],
    vocabulary: Vocabulary,
    path: PathLike,
) -> int:
    """Write ``documents`` to ``path`` in JSONL; returns the count written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for doc in documents:
            record = {
                "doc_id": doc.doc_id,
                "timestamp": doc.timestamp,
                "topic_id": doc.topic_id,
                "source": doc.source,
                "title": doc.title,
                "terms": record_terms(doc, vocabulary),
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count


def record_to_document(
    record: Mapping[str, Any], vocabulary: Vocabulary
) -> Document:
    """Decode one record (the line format above), interning its terms.

    The one decoder of document records: ``POST /add`` bodies, tailed
    and loaded JSONL lines, checkpoints and journal entries all come
    through it. ``doc_id`` must be a non-empty string and the timestamp
    finite (:class:`Document` checks both); each term must be a
    non-empty string and each count an ``int`` of at least 1 — not a
    ``bool``, and not a float such as 2.9, which would otherwise be
    truncated. Terms are interned only once every field has passed, so
    a rejected record leaves ``vocabulary`` as it was. Raises
    ``KeyError`` for a missing field, ``ValueError`` or ``TypeError``
    for a malformed one.
    """
    terms = record["terms"]
    if not isinstance(terms, Mapping):
        raise ValueError(f"terms must be an object, got {terms!r}")
    for term, count in terms.items():
        if not isinstance(term, str) or not term:
            raise ValueError(f"term {term!r} is not a non-empty string")
        if isinstance(count, bool) or not isinstance(count, int):
            raise ValueError(
                f"count {count!r} of term {term!r} is not an integer"
            )
        if count < 1:
            raise ValueError(
                f"count {count!r} of term {term!r} is not positive"
            )
    doc_id = record["doc_id"]
    timestamp = float(record["timestamp"])
    check_identity(doc_id, timestamp)
    return Document(
        doc_id=doc_id,
        timestamp=timestamp,
        term_counts={
            vocabulary.add(term): count for term, count in terms.items()
        },
        topic_id=record.get("topic_id"),
        source=record.get("source"),
        title=record.get("title"),
    )


def load_jsonl(
    path: PathLike,
    vocabulary: Vocabulary,
    pipeline: Optional[TextPipeline] = None,
) -> List[Document]:
    """Read documents from a JSONL file produced by :func:`save_jsonl`.

    Term strings are (re)interned into ``vocabulary``, growing it as
    needed, so a loaded corpus composes with documents ingested live.

    Records may carry pre-counted ``terms`` or a raw ``text`` body;
    bodies are tokenised through ``pipeline`` (a default
    :class:`~repro.text.TextPipeline` if not given).
    """
    documents: List[Document] = []
    raw_texts: List[str] = []
    raw_slots: List[int] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: invalid JSON: {exc}"
                ) from exc
            if "terms" not in record:
                if "text" not in record:
                    raise ValueError(
                        f"{path}:{line_number}: missing field 'terms' or 'text'"
                    )
                # counts are filled in after the batched text pass below
                raw_texts.append(str(record["text"]))
                raw_slots.append(len(documents))
                record = {**record, "terms": {}}
            try:
                documents.append(record_to_document(record, vocabulary))
            except KeyError as exc:
                raise ValueError(
                    f"{path}:{line_number}: missing field {exc.args[0]!r}"
                ) from exc
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from exc
    if raw_texts:
        if pipeline is None:
            pipeline = TextPipeline()
        counts_list = pipeline.batch_term_frequencies(raw_texts)
        for slot, counts in zip(raw_slots, counts_list):
            stale = documents[slot]
            documents[slot] = Document(
                doc_id=stale.doc_id,
                timestamp=stale.timestamp,
                term_counts=vocabulary.add_counts(counts),
                topic_id=stale.topic_id,
                source=stale.source,
                title=stale.title,
            )
    return documents
