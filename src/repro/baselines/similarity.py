"""Novelty-based document similarity (paper Section 3).

Two equivalent computations are provided:

* :meth:`NoveltySimilarity.similarity` — the factorised form of Eq. 16,
  a dot product of weighted vectors ``w⃗_i · w⃗_j``, each read from its
  document's row of
  :meth:`~repro.vectors.NoveltyTfidfWeighter.weighted_arrays`. This is
  the form the clustering algorithm uses (its engines take the same
  products over a whole CSR batch);
  :class:`~repro.baselines.F2ICMClusterer` uses it pair by pair.
* :meth:`NoveltySimilarity.similarity_probabilistic` — the direct
  probabilistic form of Eq. 11,

      sim(d_i,d_j) ≃ Pr(d_i)·Pr(d_j) / (len_i·len_j) · Σ_k f_ik·f_jk/Pr(t_k)

  kept as an independently-coded oracle; the test suite asserts the two
  agree to floating-point tolerance on random corpora.

The similarity is a co-occurrence *probability*, not a cosine: it is not
bounded by 1 and decays quadratically as documents age (both ``Pr(d)``
factors shrink). That asymmetry against old documents is the paper's
entire point.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..corpus.document import Document
from ..forgetting.statistics import CorpusStatistics
from ..vectors.tfidf import NoveltyTfidfWeighter
from ._vectorize import Vector, dot


class NoveltySimilarity:
    """Similarity oracle bound to one statistics snapshot."""

    def __init__(
        self,
        statistics: CorpusStatistics,
        weighter: Optional[NoveltyTfidfWeighter] = None,
    ) -> None:
        self.statistics = statistics
        self.weighter = (
            weighter if weighter is not None
            else NoveltyTfidfWeighter(statistics)
        )
        self._vector_cache: Dict[str, Vector] = {}

    # -- factorised form (Eq. 16) ------------------------------------------

    def _vector(self, document: Document) -> Vector:
        """Cached ``w⃗_i``: the document's CSR row (terms ascending),
        keyed by term id in the document's row order, the order this
        baseline's dot products have always summed in."""
        vector = self._vector_cache.get(document.doc_id)
        if vector is None:
            _, _, term_ids, data = self.weighter.weighted_arrays(
                [document]
            ).csr_parts()
            row = dict(zip(term_ids.tolist(), data.tolist()))
            vector = {term_id: row[term_id]
                      for term_id in document.term_ids.tolist()
                      if term_id in row}
            self._vector_cache[document.doc_id] = vector
        return vector

    def similarity(self, first: Document, second: Document) -> float:
        """``sim(d_i, d_j) = w⃗_i · w⃗_j`` (Eq. 16, factorised)."""
        return dot(self._vector(first), self._vector(second))

    def self_similarity(self, document: Document) -> float:
        """``sim(d_i, d_i)`` — a term of ``ss(C_p)`` (Eq. 23)."""
        vector = self._vector(document)
        return dot(vector, vector)

    # -- direct probabilistic form (Eq. 11) ---------------------------------

    def similarity_probabilistic(
        self, first: Document, second: Document
    ) -> float:
        """Direct evaluation of Eq. 11; an oracle for testing Eq. 16."""
        if first.length == 0 or second.length == 0:
            return 0.0
        stats = self.statistics
        pr_i = stats.pr_document(first.doc_id)
        pr_j = stats.pr_document(second.doc_id)
        total = 0.0
        # iterate the shorter document's terms
        small, large = first, second
        if small.term_ids.size > large.term_ids.size:
            small, large = large, small
        large_counts = large.term_counts
        for term_id, f_small in zip(small.term_ids.tolist(),
                                    small.counts.tolist()):
            f_large = large_counts.get(term_id)
            if not f_large:
                continue
            pr_t = stats.pr_term(term_id)
            if pr_t <= 0.0:
                continue
            total += f_small * f_large / pr_t
        return pr_i * pr_j * total / (first.length * second.length)

    def invalidate(self) -> None:
        """Drop caches after the underlying statistics changed."""
        self._vector_cache.clear()
