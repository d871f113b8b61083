"""Novelty tf·idf weighting (paper Eq. 12-16).

The paper represents documents as ``d⃗_i = (tf_i1·idf_1, ..., tf_im·idf_m)``
with ``tf_ik = f_ik`` and the *novelty idf* ``idf_k = 1/sqrt(Pr(t_k))``
(Eq. 13-14). The similarity (Eq. 16) is then

    sim(d_i, d_j) = Pr(d_i)·Pr(d_j) · (d⃗_i · d⃗_j) / (len_i · len_j)

which factorises as a plain dot product of **weighted document vectors**

    w⃗_i = (Pr(d_i) / len_i) · d⃗_i          so   sim(d_i, d_j) = w⃗_i · w⃗_j.

That factorisation is exactly what makes the paper's cluster
representatives work: the representative (Eq. 19-20) is the *sum* of the
member ``w⃗_i`` vectors, which the engines keep. :class:`NoveltyTfidfWeighter`
builds the weighted vectors against a statistics snapshot: one CSR batch
(:meth:`~NoveltyTfidfWeighter.weighted_arrays`, what every fit uses) or
one ``SparseVector`` per document (the paper-literal reference the
tests and baselines use).

Because ``Pr(t_k)`` and ``Pr(d_i)`` change at every statistics update,
weighted vectors are valid only for the snapshot they were built from;
the clustering layer rebuilds them per run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from .._typing import FloatArray, IntArray
from ..corpus.document import Document
from ..forgetting.statistics import CorpusStatistics
from .arrays import WeightedVectorArrays
from .sparse import SparseVector


class NoveltyTfidfWeighter:
    """Build weighted document vectors (Eq. 12-16) from statistics.

    The idf table is captured eagerly at construction so that repeated
    vector builds within one clustering run are consistent and cheap.
    """

    def __init__(self, statistics: CorpusStatistics) -> None:
        self._statistics = statistics
        self._idf_cache: Dict[int, float] = {}

    @property
    def statistics(self) -> CorpusStatistics:
        return self._statistics

    def idf(self, term_id: int) -> float:
        """Cached ``idf_k = 1/sqrt(Pr(t_k))`` (Eq. 14)."""
        cached = self._idf_cache.get(term_id)
        if cached is None:
            cached = self._statistics.idf(term_id)
            self._idf_cache[term_id] = cached
        return cached

    def weighted_vector(self, document: Document) -> SparseVector:
        """``w⃗_i = (Pr(d_i)/len_i) · d⃗_i`` — the similarity-carrying form,
        with ``d⃗_i``'s components ``tf_ik · idf_k`` (Eq. 12-14).

        Empty documents produce the zero vector (they are similar to
        nothing, including themselves).
        """
        if document.length == 0:
            return SparseVector()
        scale = (
            self._statistics.pr_document(document.doc_id) / document.length
        )
        return SparseVector({
            term_id: count * self.idf(term_id) * scale
            for term_id, count in document.term_counts.items()
        })

    def weighted_vectors(
        self, documents: Iterable[Document]
    ) -> Dict[str, SparseVector]:
        """``{doc_id: w⃗_i}`` for many documents.

        Equivalent to calling :meth:`weighted_vector` per document but
        with the idf lookup and vector construction inlined — this is
        the vectorisation step of every clustering run, so the per-term
        constant factor matters at stream scale.
        """
        documents = list(documents)
        idf_cache = self._idf_cache
        statistics_idf = self._statistics.idf
        pr_document = self._statistics.pr_document
        terms: Set[int] = set()
        for doc in documents:
            terms.update(doc.term_counts)
        for term_id in terms.difference(idf_cache):
            idf_cache[term_id] = statistics_idf(term_id)
        # a component can only be 0.0 when its idf is 0.0 (a positive
        # idf is >= 1, and the positive per-document scale cannot
        # multiply it down to zero), so one check over the batch's
        # unique terms decides whether any per-document zero filtering
        # is needed at all
        has_zero_idf = any(idf_cache[term_id] == 0.0 for term_id in terms)
        out: Dict[str, SparseVector] = {}
        for doc in documents:
            length = doc.length
            if length == 0:
                out[doc.doc_id] = SparseVector()
                continue
            scale = pr_document(doc.doc_id) / length
            if scale == 0.0:
                out[doc.doc_id] = SparseVector()
                continue
            data = {
                term_id: count * idf_cache[term_id] * scale
                for term_id, count in doc.term_counts.items()
            }
            if has_zero_idf and 0.0 in data.values():
                data = {t: v for t, v in data.items() if v != 0.0}
            out[doc.doc_id] = SparseVector._trusted(data)
        return out

    def weighted_arrays(
        self, documents: Iterable[Document]
    ) -> WeightedVectorArrays:
        """``w⃗_i`` for many documents as one CSR batch.

        The array twin of :meth:`weighted_vectors`: identical values
        (the same floating-point operation order per component), but
        built with a handful of numpy expressions over the batch's
        concatenated term runs instead of one dict per document, and
        returned as a :class:`WeightedVectorArrays` whose flat rows
        array-aware engines consume directly.
        """
        documents = list(documents)
        n = len(documents)
        pr_document = self._statistics.pr_document
        doc_ids = [doc.doc_id for doc in documents]
        lens = np.zeros(n, dtype=np.int64)
        scales = np.zeros(n, dtype=np.float64)
        id_parts: List[IntArray] = []
        count_parts: List[FloatArray] = []
        for row, doc in enumerate(documents):
            length = doc.length
            if length == 0:
                continue
            scale = pr_document(doc.doc_id) / length
            if scale == 0.0:
                continue
            term_ids, counts = doc.term_arrays()
            scales[row] = scale
            lens[row] = term_ids.size
            id_parts.append(term_ids)
            count_parts.append(counts)
        if id_parts:
            terms = np.concatenate(id_parts)
            counts = np.concatenate(count_parts)
        else:
            terms = np.zeros(0, dtype=np.int64)
            counts = np.zeros(0, dtype=np.float64)
        unique_terms, inverse = np.unique(terms, return_inverse=True)
        idf_unique = self._statistics.idf_array(unique_terms)
        data = counts * idf_unique[inverse] * np.repeat(scales, lens)
        # the unique terms number the batch's compact columns; engines
        # and the K-means repairs reuse them instead of re-sorting
        columns: Optional[Tuple[IntArray, IntArray]] = (
            unique_terms, inverse.reshape(-1)
        )
        if idf_unique.size and (idf_unique == 0.0).any():
            # same pathological-underflow filter as the dict path:
            # only terms the statistics no longer carry produce zeros
            keep = data != 0.0
            terms = terms[keep]
            data = data[keep]
            rows = np.repeat(np.arange(n, dtype=np.int64), lens)[keep]
            lens = np.bincount(rows, minlength=n)
            columns = None
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        return WeightedVectorArrays(doc_ids, indptr, terms, data, columns)

    def invalidate(self) -> None:
        """Drop the idf cache (call after the statistics were updated)."""
        self._idf_cache.clear()
