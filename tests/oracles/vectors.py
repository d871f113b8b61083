"""Conversions between the engines' CSR batches and dict vectors.

Engines take only :class:`~repro.vectors.arrays.WeightedVectorArrays`;
the paper-literal oracles and hand-written test cases speak
``{doc_id: SparseVector}``. These two functions are the one bridge.
"""

from typing import Dict, Mapping

import numpy as np

from repro.vectors.arrays import WeightedVectorArrays
from repro.vectors.sparse import SparseVector


def as_arrays(vectors: Mapping[str, SparseVector]) -> WeightedVectorArrays:
    """The CSR batch holding ``vectors``' rows, in their order."""
    lens = [len(vector) for vector in vectors.values()]
    indptr = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    term_ids = np.fromiter(
        (t for vector in vectors.values() for t in vector.keys()),
        dtype=np.int64, count=int(indptr[-1]),
    )
    data = np.fromiter(
        (v for vector in vectors.values() for v in vector.values()),
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
