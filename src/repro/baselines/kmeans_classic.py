"""Classic K-means over cosine/tf·idf (paper Section 4.1 baseline).

This is the conventional clustering the paper contrasts with: every
document carries equal weight regardless of age ("β = 30 resembles the
conventional clustering", Section 6.2.3 — β → ∞ *is* it). Spherical
K-means: documents are unit tf·idf vectors, cluster representatives are
mean vectors, documents go to the nearest (max-cosine) representative.
"""

from __future__ import annotations

import math
import random
import time as time_module
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._typing import FloatArray, IntArray
from .._validation import require_positive_int
from ..core.result import ClusteringResult
from ..corpus.document import Document, stack_rows
from ..exceptions import ClusteringError


class ClassicKMeans:
    """Spherical K-means over tf·idf cosine similarity.

    Uses the standard smooth ``idf_k = 1 + ln(n / df_k)`` weighting (not
    the paper's novelty idf) and no document weighting — the
    conventional method of Section 4.1.
    """

    def __init__(
        self,
        k: int,
        max_iterations: int = 50,
        seed: Optional[int] = None,
    ) -> None:
        self.k = require_positive_int("k", k)
        self.max_iterations = require_positive_int(
            "max_iterations", max_iterations
        )
        self.seed = seed

    def fit(self, documents: Sequence[Document]) -> ClusteringResult:
        """Cluster ``documents``; returns a :class:`ClusteringResult`.

        The ``clustering_index`` of the result is the spherical K-means
        objective (total cosine of documents to their centroid), not the
        paper's G; the two are not comparable across methods.
        """
        start = time_module.perf_counter()
        docs = [doc for doc in documents if doc.length > 0]
        if len(docs) < self.k:
            raise ClusteringError(
                f"need at least k={self.k} non-empty documents, "
                f"got {len(docs)}"
            )
        matrix, _ = self._vectorize(docs)
        n = matrix.shape[0]
        rng = random.Random(self.seed)
        centroid_rows = rng.sample(range(n), self.k)
        centroids = matrix[centroid_rows].copy()

        labels = np.full(n, -1, dtype=np.int64)
        history: List[float] = []
        converged = False
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            sims = matrix @ centroids.T  # cosine: rows are unit vectors
            new_labels = np.argmax(sims, axis=1)
            objective = float(sims[np.arange(n), new_labels].sum())
            history.append(objective)
            if np.array_equal(new_labels, labels):
                converged = True
                break
            labels = new_labels
            centroids = self._recompute_centroids(matrix, labels, centroids)

        clusters: List[List[str]] = [[] for _ in range(self.k)]
        for row, doc in enumerate(docs):
            clusters[int(labels[row])].append(doc.doc_id)
        empty_docs = [doc.doc_id for doc in documents if doc.length == 0]
        elapsed = time_module.perf_counter() - start
        return ClusteringResult(
            clusters=tuple(tuple(c) for c in clusters),
            outliers=tuple(empty_docs),
            clustering_index=history[-1] if history else 0.0,
            index_history=tuple(history),
            iterations=iterations,
            converged=converged,
            timings={"clustering": elapsed},
        )

    def _vectorize(
        self, docs: Sequence[Document]
    ) -> Tuple[FloatArray, Dict[int, int]]:
        """Unit-normalised tf·idf matrix, smooth idf = 1 + ln(n/df)."""
        lens, term_ids, counts = stack_rows(docs)
        # a term occurs once per row, so its occurrences are its df
        terms, cols, df = np.unique(
            term_ids, return_inverse=True, return_counts=True
        )
        n = len(docs)
        idf = np.array([1.0 + math.log(n / d) for d in df.tolist()])
        matrix = np.zeros((n, terms.size), dtype=np.float64)
        matrix[np.repeat(np.arange(n), lens), cols] = counts * idf[cols]
        column = {term_id: i for i, term_id in enumerate(terms.tolist())}
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return matrix / norms, column

    def _recompute_centroids(
        self,
        matrix: FloatArray,
        labels: IntArray,
        previous: FloatArray,
    ) -> FloatArray:
        """Mean of member vectors, renormalised; empty keep their spot."""
        centroids = previous.copy()
        for cluster_id in range(self.k):
            members = matrix[labels == cluster_id]
            if len(members) == 0:
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0:
                centroids[cluster_id] = mean / norm
        return centroids
