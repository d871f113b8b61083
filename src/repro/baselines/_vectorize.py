"""Shared helpers for the cosine-space baselines.

INCR and GAC hold each vector as a plain ``{term_id: value}`` dict and
need only the operations below. Their arithmetic is kept fixed, since a
last-bit change can flip a near-tie and move a document: a dot product
walks the smaller operand in insertion order, a sum drops components
that cancel to exactly 0.0, and a unit vector is the vector times
``1/norm``.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from ..corpus.document import Document

#: A sparse vector: ``term_id -> value``, with no 0.0 values stored.
Vector = Dict[int, float]


def dot(first: Vector, second: Vector) -> float:
    """Sparse dot product; iterates the smaller operand."""
    if len(first) > len(second):
        first, second = second, first
    total = 0.0
    for key, value in first.items():
        other = second.get(key)
        if other is not None:
            total += value * other
    return total


def add_into(target: Vector, other: Vector) -> None:
    """In-place ``target += other``, dropping components that reach 0.0."""
    for key, value in other.items():
        total = target.get(key, 0.0) + value
        if total == 0.0:
            target.pop(key, None)
        else:
            target[key] = total


def normalized(vector: Vector) -> Vector:
    """The unit vector along ``vector`` (the zero vector stays zero)."""
    norm = math.sqrt(sum(value * value for value in vector.values()))
    if norm == 0.0:
        return {}
    factor = 1.0 / norm
    return {key: value * factor for key, value in vector.items()}


def unit_tfidf_vectors(docs: Sequence[Document]) -> Dict[str, Vector]:
    """Unit tf·idf vectors with smooth idf = 1 + ln(n/df).

    The traditional cosine representation used by INCR and GAC (the
    novelty method uses :class:`~repro.vectors.NoveltyTfidfWeighter`
    instead).
    """
    df: Dict[int, int] = {}
    for doc in docs:
        for term_id in doc.term_ids.tolist():
            df[term_id] = df.get(term_id, 0) + 1
    n = len(docs)
    return {
        doc.doc_id: normalized({
            term_id: count * (1.0 + math.log(n / df[term_id]))
            for term_id, count in zip(doc.term_ids.tolist(),
                                      doc.counts.tolist())
        })
        for doc in docs
    }
