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
builds the weighted vectors against a statistics snapshot as one CSR
batch (:meth:`~NoveltyTfidfWeighter.weighted_arrays`), the form every
fit vectorises into.

Because ``Pr(t_k)`` and ``Pr(d_i)`` change at every statistics update,
weighted vectors are valid only for the snapshot they were built from;
the clustering layer rebuilds them per run.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from .._typing import FloatArray, IntArray
from ..corpus.document import Document
from ..forgetting.statistics import CorpusStatistics
from .arrays import WeightedVectorArrays


class NoveltyTfidfWeighter:
    """Build weighted document vectors (Eq. 12-16) from statistics."""

    def __init__(self, statistics: CorpusStatistics) -> None:
        self._statistics = statistics

    @property
    def statistics(self) -> CorpusStatistics:
        return self._statistics

    def weighted_arrays(
        self, documents: Iterable[Document]
    ) -> WeightedVectorArrays:
        """``w⃗_i = (Pr(d_i)/len_i) · d⃗_i`` for many documents as one
        CSR batch, with ``d⃗_i``'s components ``tf_ik · idf_k``
        (Eq. 12-14), each computed as ``count · idf · scale``.

        Built with a handful of numpy expressions over the batch's
        concatenated term runs; each row keeps its document's
        ``term_counts`` order. Empty documents get empty rows (they are
        similar to nothing, including themselves).
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
            # a component is 0.0 only when its idf is: a positive idf
            # is >= 1 and the positive document scale cannot multiply
            # it down to zero, so only terms the statistics no longer
            # carry (their mass underflowed) produce zeros; drop them
            keep = data != 0.0
            terms = terms[keep]
            data = data[keep]
            rows = np.repeat(np.arange(n, dtype=np.int64), lens)[keep]
            lens = np.bincount(rows, minlength=n)
            columns = None
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        return WeightedVectorArrays(doc_ids, indptr, terms, data, columns)
