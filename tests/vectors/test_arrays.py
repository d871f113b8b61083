"""Batched vectorisation: the CSR path must match the dict oracle exactly.

``weighted_arrays`` is a faster construction of the paper-literal
Eq. 12-16 weights, so every assertion here is bit-level equality with
the oracle's ``weighted_vector``, not toleranced closeness.
"""

import numpy as np
import pytest

from repro import CorpusStatistics, ForgettingModel, NoveltyTfidfWeighter
from repro.forgetting.backends import ColumnarStatisticsBackend
from repro.vectors.arrays import WeightedVectorArrays
from tests.conftest import make_document
from tests.oracles import DictStatisticsBackend
from tests.oracles.vectors import as_dicts, weighted_vector


def _corpus(backend=DictStatisticsBackend):
    model = ForgettingModel(half_life=7.0, life_span=30.0)
    docs = [
        make_document(f"d{i}", float(i % 5),
                      {(i + j) % 13: 1 + (i * j) % 4 for j in range(1 + i % 6)})
        for i in range(40)
    ]
    stats = CorpusStatistics(model, backend=backend)
    stats.observe(docs, at_time=5.0)
    return stats, docs


@pytest.mark.parametrize(
    "backend", [DictStatisticsBackend, ColumnarStatisticsBackend],
    ids=lambda backend: backend.name,
)
class TestWeightedArraysEquivalence:
    def test_rows_bitwise_equal_to_dict_path(self, backend):
        stats, docs = _corpus(backend)
        weighter = NoveltyTfidfWeighter(stats)
        reference = {doc.doc_id: weighted_vector(stats, doc) for doc in docs}
        rows = as_dicts(weighter.weighted_arrays(docs))
        assert list(rows) == list(reference)
        for doc_id in reference:
            assert dict(rows[doc_id]) == dict(reference[doc_id])

    def test_mapping_protocol(self, backend):
        stats, docs = _corpus(backend)
        arrays = NoveltyTfidfWeighter(stats).weighted_arrays(docs)
        assert isinstance(arrays, WeightedVectorArrays)
        assert len(arrays) == len(docs)
        assert docs[0].doc_id in arrays.doc_ids
        doc_ids, indptr, term_ids, data = arrays.csr_parts()
        assert len(indptr) == len(docs) + 1
        assert indptr[-1] == len(term_ids) == len(data)

    def test_empty_doc_ids_matches_rows(self, backend):
        stats, docs = _corpus(backend)
        docs = docs + [make_document("empty", 5.0, {})]
        stats.observe([docs[-1]], at_time=5.0)
        arrays = NoveltyTfidfWeighter(stats).weighted_arrays(docs)
        empty_rows = np.flatnonzero(np.diff(arrays.indptr) == 0)
        assert [arrays.doc_ids[row] for row in empty_rows] == ["empty"]
        assert len(as_dicts(arrays)["empty"]) == 0


class TestZeroIdfFilter:
    """Satellite: terms whose mass underflowed weight to 0.0 — drop them.

    A component is 0.0 exactly when its term's idf is 0.0, which in a
    live system happens when scale-factor decay underflows a term mass
    to zero while a document still carrying the term survives. The
    tests force that state directly in the backend.
    """

    @staticmethod
    def _zero_out_term(stats, term_id):
        backend = stats._backend
        if hasattr(backend, "_term_mass_raw"):  # dict backend
            backend._term_mass_raw[term_id] = 0.0
        else:  # columnar: zero the interned column
            col = int(backend._lookup_cols(
                np.asarray([term_id], dtype=np.int64))[0])
            backend._mass_raw[col] = 0.0
        assert stats.pr_term(term_id) == 0.0

    def test_underflowed_term_component_dropped_dict_path(self):
        stats, docs = _corpus()
        dead_term = next(iter(docs[0].term_counts))
        self._zero_out_term(stats, dead_term)
        vector = weighted_vector(stats, docs[0])
        assert dead_term not in vector
        assert 0.0 not in vector.values()
        assert len(vector) == len(docs[0].term_counts) - 1

    def test_underflowed_term_component_dropped_array_path(self):
        stats, docs = _corpus()
        dead_term = next(iter(docs[0].term_counts))
        self._zero_out_term(stats, dead_term)
        arrays = NoveltyTfidfWeighter(stats).weighted_arrays(docs)
        vector = as_dicts(arrays)[docs[0].doc_id]
        assert dead_term not in vector
        assert 0.0 not in vector.values()
        _, _, _, data = arrays.csr_parts()
        assert not (np.asarray(data) == 0.0).any()

    def test_clean_corpus_keeps_all_components(self):
        stats, docs = _corpus()
        vectors = as_dicts(NoveltyTfidfWeighter(stats).weighted_arrays(docs))
        for doc in docs:
            assert len(vectors[doc.doc_id]) == len(doc.term_counts)


class TestCompactColumns:
    @pytest.mark.parametrize("ids", [
        [3, 0, 3, 7, 1],                     # dense: presence mask
        [5, 2**31 - 1, 5, 0, 40_000_000],    # sparse: sorted
        [2**31 - 1],
    ])
    def test_is_np_unique_with_inverse(self, ids):
        from repro.vectors.arrays import compact_columns

        term_ids = np.array(ids, dtype=np.int64)
        terms, cols = compact_columns(term_ids)
        expected_terms, expected_cols = np.unique(term_ids,
                                                  return_inverse=True)
        assert terms.dtype == cols.dtype == np.int64
        assert terms.tolist() == expected_terms.tolist()
        assert cols.tolist() == expected_cols.tolist()

    def test_sparse_ids_cost_memory_per_entry(self):
        import tracemalloc

        from repro.vectors.arrays import compact_columns

        term_ids = np.array([1, 2**31 - 1, 4], dtype=np.int64)
        tracemalloc.start()
        try:
            compact_columns(term_ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
