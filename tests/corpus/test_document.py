"""Unit tests for repro.corpus.Document."""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Document
from tests.conftest import make_document


class TestConstruction:
    def test_basic_fields(self):
        doc = Document("d1", 3.5, {0: 2, 1: 1}, topic_id="t", source="APW",
                       title="headline")
        assert doc.doc_id == "d1"
        assert doc.timestamp == 3.5
        assert doc.topic_id == "t"
        assert doc.source == "APW"
        assert doc.title == "headline"

    def test_length_is_token_total(self):
        assert make_document("d", 0.0, {0: 2, 1: 3}).length == 5

    def test_len_dunder(self):
        assert len(make_document("d", 0.0, {0: 2})) == 2

    def test_zero_counts_dropped(self):
        doc = make_document("d", 0.0, {0: 2, 1: 0})
        assert 1 not in doc.term_counts
        assert doc.length == 2

    def test_empty_document(self):
        doc = make_document("d", 0.0, {})
        assert doc.is_empty
        assert doc.length == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            make_document("d", 0.0, {0: -1})

    def test_negative_term_id_rejected(self):
        # a negative id indexed the statistics' per-term arrays from the
        # end, crediting its mass to another term
        with pytest.raises(ValueError, match="term id -1 .* negative"):
            make_document("d", 0.0, {0: 1, -1: 3})

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            make_document("", 0.0, {0: 1})

    @pytest.mark.parametrize("doc_id", [7, None, b"d1"])
    def test_non_string_id_rejected(self, doc_id):
        # 7 and "7" would be two distinct documents, and sorting mixed
        # ids breaks every snapshot built while the document is active
        with pytest.raises(TypeError, match="doc_id must be a string"):
            Document(doc_id, 0.0, {0: 1})

    def test_non_numeric_timestamp_rejected(self):
        with pytest.raises(TypeError):
            Document("d", "today", {0: 1})  # type: ignore[arg-type]

    @pytest.mark.parametrize("timestamp", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, timestamp):
        # a NaN T_i would make every later λ^(τ-T) NaN: tdw and the term
        # masses would stay NaN for the rest of the stream
        with pytest.raises(ValueError, match="finite"):
            Document("d", timestamp, {0: 1})

    def test_immutable(self):
        doc = make_document("d", 0.0, {0: 1})
        with pytest.raises(AttributeError):
            doc.doc_id = "other"  # type: ignore[misc]

    def test_term_counts_copied_from_input(self):
        source = {0: 1}
        doc = make_document("d", 0.0, source)
        source[0] = 99
        assert doc.term_counts[0] == 1


class TestRowValidation:
    @pytest.mark.parametrize("counts", [{0: 2.9}, {0: 2.0}, {0: "2"},
                                        {0: None}])
    def test_non_integral_count_rejected(self, counts):
        # 2.9 used to be truncated to 2 silently
        with pytest.raises(TypeError, match="not an integer"):
            Document("d", 0.0, counts)

    def test_non_integral_term_id_rejected(self):
        with pytest.raises(TypeError, match="not an integer"):
            Document("d", 0.0, {1.5: 1})

    @pytest.mark.parametrize("counts", [{2 ** 31: 1}, {-(2 ** 31) - 1: 1},
                                        {0: 2 ** 31}, {0: -(2 ** 31) - 1}])
    def test_outside_int32_rejected(self, counts):
        with pytest.raises(ValueError, match="int32"):
            Document("d", 0.0, counts)

    def test_int32_bounds_accepted(self):
        doc = Document("d", 0.0, {2 ** 31 - 1: 2 ** 31 - 1})
        assert doc.term_counts == {2 ** 31 - 1: 2 ** 31 - 1}

    def test_numpy_integers_accepted(self):
        doc = Document("d", 0.0, {np.int64(3): np.int32(2)})
        assert doc.term_counts == {3: 2}
        assert type(doc.length) is int

    def test_pairs_accepted(self):
        doc = Document("d", 0.0, [(4, 1), (2, 3)])
        assert doc.term_counts == {4: 1, 2: 3}


class TestRow:
    def test_term_counts_keep_input_order_without_zeros(self):
        doc = Document("d", 0.0, {9: 1, 3: 0, 5: 2, 1: 4, 7: 0})
        assert list(doc.term_counts.items()) == [(9, 1), (5, 2), (1, 4)]
        assert doc.term_ids.tolist() == [9, 5, 1]
        assert doc.counts.tolist() == [1, 2, 4]

    def test_arrays_are_read_only_int32(self):
        doc = Document("d", 0.0, {9: 1, 5: 2})
        for array in (doc.term_ids, doc.counts):
            assert array.dtype == np.int32
            with pytest.raises(ValueError):
                array[0] = 99
            with pytest.raises(ValueError):
                array.setflags(write=True)

    def test_mutating_term_counts_changes_nothing(self):
        doc = Document("d", 0.0, {0: 1, 1: 2})
        counts = doc.term_counts
        counts[0] = 99
        counts[7] = 5
        assert doc.term_counts == {0: 1, 1: 2}
        assert doc.length == 3

    def test_holds_no_dict(self):
        doc = Document("d", 0.0, {0: 1, 1: 2})
        assert not hasattr(doc, "__dict__")
        with pytest.raises(AttributeError):
            doc._counts = b""  # type: ignore[misc]

    def test_term_probability_reads_the_row(self):
        doc = Document("d", 0.0, {4: 1, 2: 3})
        assert doc.term_probability(2) == 0.75
        assert doc.term_probability(3) == 0.0

    def test_memory_per_document(self):
        # the TDT2-like stream averages 66 distinct terms per document;
        # a dict row took about 2.5 KB of them
        rows = [{1000 + 37 * j + i: 1 + j % 5 for j in range(66)}
                for i in range(1000)]
        ids = [f"doc{i:06d}" for i in range(1000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            docs = [Document(doc_id, float(i), row, topic_id="t")
                    for i, (doc_id, row) in enumerate(zip(ids, rows))]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(docs) == 1000
        assert held / 1000 < 1024


class TestEqualityAndCopies:
    def test_equality_ignores_term_order(self):
        first = Document("d", 1.0, {1: 2, 2: 3}, topic_id="t")
        second = Document("d", 1.0, {2: 3, 1: 2}, topic_id="t")
        assert first == second

    @pytest.mark.parametrize("other", [
        Document("d", 1.0, {1: 2, 2: 4}),
        Document("d", 1.0, {1: 2, 3: 3}),
        Document("e", 1.0, {1: 2, 2: 3}),
        Document("d", 2.0, {1: 2, 2: 3}),
        Document("d", 1.0, {1: 2, 2: 3}, topic_id="t"),
        Document("d", 1.0, {1: 2, 2: 3}, source="APW"),
        Document("d", 1.0, {1: 2, 2: 3}, title="x"),
    ])
    def test_any_field_differs(self, other):
        assert Document("d", 1.0, {2: 3, 1: 2}) != other

    def test_not_equal_to_other_types(self):
        assert Document("d", 1.0, {1: 2}) != ("d", 1.0, {1: 2})

    @pytest.mark.parametrize("clone", [
        lambda doc: pickle.loads(pickle.dumps(doc)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trips(self, clone):
        doc = Document("d", 1.5, {9: 1, 3: 2}, topic_id="t", source="APW",
                       title="headline")
        twin = clone(doc)
        assert twin == doc
        assert list(twin.term_counts.items()) == [(9, 1), (3, 2)]
        assert (twin.topic_id, twin.source, twin.title) == (
            "t", "APW", "headline")
        assert twin.length == 3

    def test_repr_names_every_field(self):
        doc = Document("d", 1.5, {9: 1}, topic_id="t")
        assert repr(doc) == (
            "Document(doc_id='d', timestamp=1.5, term_counts={9: 1}, "
            "topic_id='t', source=None, title=None)"
        )


class TestTermProbability:
    def test_matches_share(self):
        doc = make_document("d", 0.0, {0: 1, 1: 3})
        assert math.isclose(doc.term_probability(1), 0.75)

    def test_missing_term_zero(self):
        assert make_document("d", 0.0, {0: 1}).term_probability(9) == 0.0

    def test_empty_document_zero(self):
        assert make_document("d", 0.0, {}).term_probability(0) == 0.0

    @given(st.dictionaries(st.integers(0, 50), st.integers(1, 20),
                           min_size=1, max_size=20))
    def test_probabilities_sum_to_one(self, counts):
        doc = make_document("d", 0.0, counts)
        total = sum(doc.term_probability(t) for t in counts)
        assert math.isclose(total, 1.0)
