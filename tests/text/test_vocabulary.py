"""Unit tests for repro.text.Vocabulary."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import VocabularyFrozenError
from repro.text import Vocabulary


class TestVocabulary:
    def test_ids_are_dense_and_first_seen(self):
        vocab = Vocabulary()
        assert vocab.add("stock") == 0
        assert vocab.add("market") == 1
        assert vocab.add("stock") == 0

    def test_roundtrip_term_id(self):
        vocab = Vocabulary(["alpha", "beta"])
        assert vocab.term(vocab.id("beta")) == "beta"

    def test_id_raises_for_unknown(self):
        with pytest.raises(KeyError):
            Vocabulary().id("missing")

    def test_get_with_default(self):
        vocab = Vocabulary(["x"])
        assert vocab.get("x") == 0
        assert vocab.get("missing") == -1
        assert vocab.get("missing", default=99) == 99

    def test_contains_and_len(self):
        vocab = Vocabulary(["a1", "b1"])
        assert "a1" in vocab
        assert "c1" not in vocab
        assert len(vocab) == 2

    def test_iteration_order_matches_ids(self):
        vocab = Vocabulary(["z1", "a1", "m1"])
        assert list(vocab) == ["z1", "a1", "m1"]

    def test_add_counts_maps_terms_to_ids(self):
        vocab = Vocabulary()
        mapped = vocab.add_counts({"cat": 2, "dog": 1})
        assert mapped == {vocab.id("cat"): 2, vocab.id("dog"): 1}

    def test_add_counts_grows_vocabulary(self):
        vocab = Vocabulary(["cat"])
        vocab.add_counts({"dog": 1})
        assert "dog" in vocab

    def test_add_counts_keeps_the_order_of_counts(self):
        vocab = Vocabulary(["dog"])
        mapped = vocab.add_counts({"eel": 4, "dog": 1, "ant": 2})
        assert list(mapped.items()) == [(1, 4), (0, 1), (2, 2)]
        assert list(vocab) == ["dog", "eel", "ant"]

    def test_add_counts_mixed_row_gets_the_ids_of_per_term_add(self):
        rows = [{"cat": 1, "dog": 2}, {"eel": 1, "cat": 3, "ant": 1,
                                       "dog": 1, "bee": 2},
                {"bee": 1}, {"fox": 2, "ant": 4, "gnu": 1}]
        bulk, single = Vocabulary(), Vocabulary()
        for row in rows:
            mapped = bulk.add_counts(row)
            assert list(mapped.items()) == [
                (single.add(term), count) for term, count in row.items()
            ]
        assert list(bulk) == list(single)

    @given(st.lists(st.dictionaries(st.text(alphabet="abcd", min_size=1,
                                            max_size=3),
                                    st.integers(1, 9), max_size=8),
                    max_size=12))
    def test_add_counts_agrees_with_add(self, rows):
        bulk, single = Vocabulary(), Vocabulary()
        for row in rows:
            assert list(bulk.add_counts(row).items()) == [
                (single.add(term), count) for term, count in row.items()
            ]
        assert list(bulk) == list(single)
        assert [bulk.id(term) for term in bulk] == list(range(len(bulk)))

    def test_lookup_adds_nothing(self):
        vocab = Vocabulary(["cat", "dog"])
        assert list(vocab.lookup(["dog", "eel", "cat"])) == [1, None, 0]
        assert list(vocab.lookup({})) == []
        assert len(vocab) == 2

    def test_duplicate_constructor_terms_deduplicated(self):
        vocab = Vocabulary(["a1", "a1", "b1"])
        assert len(vocab) == 2


class TestFreezing:
    def test_freeze_blocks_new_terms(self):
        vocab = Vocabulary(["known"])
        vocab.freeze()
        with pytest.raises(VocabularyFrozenError):
            vocab.add("new")

    def test_freeze_allows_existing_terms(self):
        vocab = Vocabulary(["known"])
        vocab.freeze()
        assert vocab.add("known") == 0

    def test_frozen_add_counts_raises_and_adds_nothing(self):
        vocab = Vocabulary(["known"])
        vocab.freeze()
        assert vocab.add_counts({"known": 3}) == {0: 3}
        with pytest.raises(VocabularyFrozenError):
            vocab.add_counts({"known": 1, "new": 2})
        assert list(vocab) == ["known"]

    def test_frozen_add_counts_names_the_first_unseen_term(self):
        vocab = Vocabulary(["known"])
        vocab.freeze()
        with pytest.raises(VocabularyFrozenError, match="'new'"):
            vocab.add_counts({"known": 1, "new": 2, "newer": 1})
        assert list(vocab) == ["known"]
        assert "new" not in vocab and "newer" not in vocab
        assert vocab.get("new") == -1

    def test_frozen_property(self):
        vocab = Vocabulary()
        assert not vocab.frozen
        vocab.freeze()
        assert vocab.frozen


class TestVocabularyProperties:
    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6),
                    max_size=50))
    def test_ids_bijective(self, terms):
        vocab = Vocabulary()
        for term in terms:
            vocab.add(term)
        assert len(vocab) == len(set(terms))
        for term in set(terms):
            assert vocab.term(vocab.id(term)) == term

    @given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6),
                    min_size=1, max_size=50))
    def test_ids_contiguous_from_zero(self, terms):
        vocab = Vocabulary(terms)
        ids = sorted(vocab.id(t) for t in set(terms))
        assert ids == list(range(len(ids)))
