"""Dict vectors for the oracles: the paper-literal ``w⃗_i``, and the
bridge between the engines' CSR batches and ``{doc_id: SparseVector}``.

Engines take only :class:`~repro.vectors.arrays.WeightedVectorArrays`;
the paper-literal oracles and hand-written test cases speak
``{doc_id: SparseVector}``. :func:`as_arrays` and :func:`as_dicts` are
the one bridge between the two.
"""

from typing import Dict, Mapping

import numpy as np

from repro.corpus.document import Document
from repro.forgetting.statistics import CorpusStatistics
from repro.vectors.arrays import WeightedVectorArrays

from .sparse import SparseVector


def weighted_vector(
    statistics: CorpusStatistics, document: Document
) -> SparseVector:
    """``w⃗_i = (Pr(d_i)/len_i) · d⃗_i`` (Eq. 16), with ``d⃗_i``'s
    components ``tf_ik · idf_k`` (Eq. 12-14), one term at a time.

    Empty documents produce the zero vector (they are similar to
    nothing, including themselves).
    """
    if document.length == 0:
        return SparseVector()
    scale = statistics.pr_document(document.doc_id) / document.length
    return SparseVector({
        term_id: count * statistics.idf(term_id) * scale
        for term_id, count in document.term_counts.items()
    })


def as_arrays(vectors: Mapping[str, SparseVector]) -> WeightedVectorArrays:
    """The CSR batch holding ``vectors``' rows, in their order, each
    row's terms ascending (as every batch holds them)."""
    rows = [sorted(vector.items()) for vector in vectors.values()]
    lens = [len(row) for row in rows]
    indptr = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    term_ids = np.fromiter(
        (t for row in rows for t, _ in row),
        dtype=np.int64, count=int(indptr[-1]),
    )
    data = np.fromiter(
        (v for row in rows for _, v in row),
        dtype=np.float64, count=int(indptr[-1]),
    )
    return WeightedVectorArrays(list(vectors), indptr, term_ids, data)


def as_dicts(arrays: WeightedVectorArrays) -> Dict[str, SparseVector]:
    """``{doc_id: SparseVector}`` of a CSR batch's rows, in row order."""
    doc_ids, indptr, term_ids, data = arrays.csr_parts()
    return {
        doc_id: SparseVector(dict(zip(
            term_ids[indptr[row]:indptr[row + 1]].tolist(),
            data[indptr[row]:indptr[row + 1]].tolist(),
        )))
        for row, doc_id in enumerate(doc_ids)
    }
