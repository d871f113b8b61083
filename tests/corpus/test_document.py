"""Unit tests for repro.corpus.Document."""

import math

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
