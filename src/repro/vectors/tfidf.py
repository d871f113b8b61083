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

from operator import attrgetter
from typing import Iterable, Optional, Tuple

import numpy as np

from .._typing import IntArray
from ..corpus.document import Document
from ..exceptions import EmptyCorpusError
from ..forgetting.statistics import CorpusStatistics
from .arrays import WeightedVectorArrays, compact_columns


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

        The documents' term rows come from the statistics store, which
        holds each active document's row sorted by term
        (:meth:`~repro.forgetting.CorpusStatistics.term_rows`), so the
        batch is a handful of numpy expressions over its components:
        ``count · idf[column] · (dw/tdw/len)[row]``. Rows keep their
        terms ascending. Empty documents get empty rows (they are
        similar to nothing, including themselves).
        """
        doc_ids = list(map(attrgetter("doc_id"), documents))
        n = len(doc_ids)
        statistics = self._statistics
        rows = statistics.term_rows(doc_ids)
        lens = np.diff(rows.indptr)
        has_terms = rows.lengths > 0.0
        scales = np.zeros(n, dtype=np.float64)
        if has_terms.any():
            tdw = statistics.tdw
            if tdw <= 0.0:
                raise EmptyCorpusError("no document weight in the corpus")
            # Pr(d_i) / len_i, grouped as the scalar path groups it
            scales[has_terms] = (
                rows.weights[has_terms] / tdw / rows.lengths[has_terms]
            )
        terms = rows.term_ids
        unique_terms, inverse = compact_columns(terms)
        idf_unique = statistics.idf_array(unique_terms)
        data = rows.counts * idf_unique[inverse] * np.repeat(scales, lens)
        # the unique terms number the batch's compact columns; engines
        # and the K-means repairs reuse them instead of re-sorting
        columns: Optional[Tuple[IntArray, IntArray]] = (
            unique_terms, inverse
        )
        indptr = rows.indptr
        if not data.all():
            # zero components come from terms the statistics no longer
            # carry (their mass underflowed, so their idf is 0.0) and
            # from documents whose weight underflowed; drop them
            keep = data != 0.0
            terms = terms[keep]
            data = data[keep]
            owner = np.repeat(np.arange(n, dtype=np.int64), lens)[keep]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
            columns = None
        return WeightedVectorArrays(doc_ids, indptr, terms, data, columns)
