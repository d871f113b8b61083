"""Near-duplicate detection for news streams (MinHash over term sets).

Wire services redistribute lightly edited copies of the same story; on
TDT-style corpora near-duplicates inflate cluster statistics and make
"new" topics look hotter than they are. This module provides the
standard remedy: MinHash signatures over document term sets, banded
into an LSH index so candidate pairs cost O(1) lookups, verified by
exact Jaccard similarity.

Everything is deterministic given ``seed``, pure Python, and operates
on the term-id sets documents already carry (no re-tokenisation).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .._validation import require_positive_int, require_probability
from .document import Document

_MERSENNE_PRIME = (1 << 61) - 1


def jaccard(first: Document, second: Document) -> float:
    """Exact Jaccard similarity of the two documents' term sets."""
    a = set(first.term_ids.tolist())
    b = set(second.term_ids.tolist())
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


class MinHasher:
    """MinHash signatures: ``P(minhash match) = Jaccard similarity``."""

    def __init__(self, n_hashes: int = 64, seed: int = 0) -> None:
        self.n_hashes = require_positive_int("n_hashes", n_hashes)
        rng = random.Random(seed)
        self._coefficients: List[Tuple[int, int]] = [
            (rng.randrange(1, _MERSENNE_PRIME),
             rng.randrange(0, _MERSENNE_PRIME))
            for _ in range(self.n_hashes)
        ]

    def signature(self, term_ids: Iterable[int]) -> Tuple[int, ...]:
        """Signature of a term-id set; empty sets get a sentinel."""
        ids = list(term_ids)
        if not ids:
            return tuple([_MERSENNE_PRIME] * self.n_hashes)
        return tuple(
            min((a * term_id + b) % _MERSENNE_PRIME for term_id in ids)
            for a, b in self._coefficients
        )

    @staticmethod
    def estimate(first: Sequence[int], second: Sequence[int]) -> float:
        """Estimated Jaccard similarity from two signatures."""
        if len(first) != len(second):
            raise ValueError("signatures must have equal length")
        if not first:
            return 0.0
        matches = sum(1 for a, b in zip(first, second) if a == b)
        return matches / len(first)


class NearDuplicateIndex:
    """Banded-LSH index for streaming near-duplicate queries.

    Parameters
    ----------
    threshold:
        Jaccard similarity at or above which two documents count as
        near-duplicates (verified exactly, so no false positives).
    n_hashes / bands:
        Signature length and LSH banding; ``n_hashes`` must be
        divisible by ``bands``. More bands -> more candidate recall at
        lower thresholds (the sweet spot is threshold ≈
        ``(1/bands)^(bands/n_hashes)``).

    >>> index = NearDuplicateIndex(threshold=0.8)  # doctest: +SKIP
    >>> dup_of = index.add(document)               # doctest: +SKIP
    """

    def __init__(
        self,
        threshold: float = 0.8,
        n_hashes: int = 64,
        bands: int = 16,
        seed: int = 0,
    ) -> None:
        self.threshold = require_probability("threshold", threshold)
        require_positive_int("bands", bands)
        if n_hashes % bands != 0:
            raise ValueError(
                f"n_hashes ({n_hashes}) must be divisible by bands ({bands})"
            )
        self.bands = bands
        self.rows = n_hashes // bands
        self._hasher = MinHasher(n_hashes=n_hashes, seed=seed)
        self._buckets: List[Dict[Tuple[int, ...], List[str]]] = [
            {} for _ in range(bands)
        ]
        self._documents: Dict[str, Document] = {}

    def __len__(self) -> int:
        return len(self._documents)

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._documents

    def candidates(self, document: Document) -> Set[str]:
        """Ids sharing at least one LSH bucket with ``document``."""
        signature = self._hasher.signature(document.term_ids.tolist())
        found: Set[str] = set()
        for band, bucket_map in enumerate(self._buckets):
            key = signature[band * self.rows:(band + 1) * self.rows]
            found.update(bucket_map.get(key, ()))
        return found

    def find_duplicates(self, document: Document) -> List[Tuple[str, float]]:
        """Indexed near-duplicates of ``document``: (doc_id, jaccard),
        best first, all with similarity >= threshold."""
        results = []
        for doc_id in self.candidates(document):
            similarity = jaccard(document, self._documents[doc_id])
            if similarity >= self.threshold:
                results.append((doc_id, similarity))
        results.sort(key=lambda item: (-item[1], item[0]))
        return results

    def add(self, document: Document) -> List[Tuple[str, float]]:
        """Index ``document``; returns near-duplicates found first.

        The document is indexed regardless of duplicates (callers decide
        whether to keep it).
        """
        duplicates = self.find_duplicates(document)
        self._index(document)
        return duplicates

    def _index(self, document: Document) -> None:
        """Insert without querying (for callers that already queried)."""
        signature = self._hasher.signature(document.term_ids.tolist())
        for band, bucket_map in enumerate(self._buckets):
            key = signature[band * self.rows:(band + 1) * self.rows]
            bucket_map.setdefault(key, []).append(document.doc_id)
        self._documents[document.doc_id] = document


def deduplicate(
    documents: Sequence[Document],
    threshold: float = 0.8,
    n_hashes: int = 64,
    bands: int = 16,
    seed: int = 0,
) -> Tuple[List[Document], Dict[str, str]]:
    """One-shot dedup of a document list (chronological first-wins).

    Returns ``(kept, removed)`` where ``removed`` maps each dropped
    doc id to the id of the earlier kept document it duplicated.
    """
    index = NearDuplicateIndex(
        threshold=threshold, n_hashes=n_hashes, bands=bands, seed=seed
    )
    kept: List[Document] = []
    removed: Dict[str, str] = {}
    for doc in sorted(documents, key=lambda d: (d.timestamp, d.doc_id)):
        duplicates = index.find_duplicates(doc)
        surviving = [
            (doc_id, sim) for doc_id, sim in duplicates
            if doc_id not in removed
        ]
        if surviving:
            removed[doc.doc_id] = surviving[0][0]
        else:
            index._index(doc)
            kept.append(doc)
    return kept, removed
