"""INCR — single-pass incremental clustering (Yang et al., Section 2.2).

"INCR sequentially processes the input documents, one at a time, and
grows clusters incrementally. A new document is assigned to a previous
cluster if the similarity score between the document and the cluster is
above a preselected threshold. Otherwise the document becomes the seed
of a new cluster. ... INCR also imposes a time window in which the
linear decaying-weight function is incorporated in the similarity
function."

Implementation: documents are processed in timestamp order; similarity
to a cluster is the cosine between the document's unit tf·idf vector and
the cluster prototype (mean of member vectors), multiplied by a linear
decay ``max(0, 1 - gap/window_size)`` where ``gap`` is the number of
documents seen since the cluster last absorbed one. A cluster that has
scrolled out of the window can no longer absorb documents.
"""

from __future__ import annotations

import time as time_module
from typing import List, Optional, Sequence

from .._validation import require_positive, require_positive_int
from ..corpus.document import Document
from ..core.result import ClusteringResult
from ..exceptions import ClusteringError
from ._vectorize import Vector, add_into, dot, normalized, unit_tfidf_vectors


class _IncrCluster:
    __slots__ = ("members", "prototype_sum", "last_index", "_prototype")

    def __init__(self, doc_id: str, vector: Vector, index: int) -> None:
        self.members: List[str] = [doc_id]
        self.prototype_sum = dict(vector)
        self.last_index = index
        self._prototype: Optional[Vector] = None

    def prototype(self) -> Vector:
        """Normalised prototype, cached until the next absorb (the
        normalisation copy dominated the single-pass cost otherwise)."""
        if self._prototype is None:
            self._prototype = normalized(self.prototype_sum)
        return self._prototype

    def absorb(self, doc_id: str, vector: Vector, index: int) -> None:
        self.members.append(doc_id)
        add_into(self.prototype_sum, vector)
        self.last_index = index
        self._prototype = None


class INCRClusterer:
    """Threshold-based single-pass clustering with linear time decay.

    Parameters
    ----------
    threshold:
        Minimum (decayed) similarity to join an existing cluster
        (Yang et al. tune this per task; 0.2-0.4 is typical for cosine).
    window_size:
        Size of the document-count time window ``m``: a cluster's
        attraction decays linearly to 0 after ``m`` documents pass
        without it absorbing one.
    """

    def __init__(
        self,
        threshold: float = 0.3,
        window_size: int = 1000,
    ) -> None:
        self.threshold = require_positive("threshold", threshold)
        self.window_size = require_positive_int("window_size", window_size)

    def fit(self, documents: Sequence[Document]) -> ClusteringResult:
        """Single pass over ``documents`` in timestamp order."""
        start = time_module.perf_counter()
        docs = sorted(
            (doc for doc in documents if doc.length > 0),
            key=lambda d: (d.timestamp, d.doc_id),
        )
        if not docs:
            raise ClusteringError("no non-empty documents to cluster")
        vectors = unit_tfidf_vectors(docs)
        clusters: List[_IncrCluster] = []
        active: List[_IncrCluster] = []
        for index, doc in enumerate(docs):
            vector = vectors[doc.doc_id]
            best_cluster = None
            best_score = 0.0
            still_active: List[_IncrCluster] = []
            for cluster in active:
                gap = index - cluster.last_index
                decay = 1.0 - gap / self.window_size
                if decay <= 0.0:
                    # scrolled out of the window; last_index only moves
                    # on absorb, so this cluster is dead forever — stop
                    # scanning it for every later document
                    continue
                still_active.append(cluster)
                score = dot(cluster.prototype(), vector) * decay
                if score > best_score:
                    best_score = score
                    best_cluster = cluster
            active = still_active
            if best_cluster is not None and best_score >= self.threshold:
                best_cluster.absorb(doc.doc_id, vector, index)
            else:
                fresh = _IncrCluster(doc.doc_id, vector, index)
                clusters.append(fresh)
                active.append(fresh)

        empty_docs = [doc.doc_id for doc in documents if doc.length == 0]
        elapsed = time_module.perf_counter() - start
        return ClusteringResult(
            clusters=tuple(tuple(c.members) for c in clusters),
            outliers=tuple(empty_docs),
            clustering_index=float(len(clusters)),
            index_history=(float(len(clusters)),),
            iterations=1,
            converged=True,
            timings={"clustering": elapsed},
        )

