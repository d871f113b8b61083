"""Unit tests for the from-scratch Porter stemmer.

Known-pair cases are taken from Porter's 1980 article examples and the
standard reference vocabulary; property tests assert structural
invariants (idempotence on stems of stems is NOT guaranteed by Porter,
so we assert weaker, true properties).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text import MemoizedStemmer, PorterStemmer, Tokenizer, stem

# (input, expected stem) — spot checks across all algorithm steps.
KNOWN_PAIRS = [
    # step 1a
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    # step 1b
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    # step 1c
    ("happy", "happi"),
    ("sky", "sky"),
    # step 2
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    # step 3
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    # step 4
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    # step 5
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    # full news-wire words
    ("elections", "elect"),
    ("government", "govern"),
    ("bombing", "bomb"),
    ("crisis", "crisi"),
    ("economic", "econom"),
    ("settlement", "settlement"),
]


@pytest.mark.parametrize("word,expected", KNOWN_PAIRS)
def test_known_pairs(word, expected):
    assert stem(word) == expected


class TestEdgeCases:
    def test_short_words_unchanged(self):
        assert stem("a") == "a"
        assert stem("at") == "at"
        assert stem("") == ""

    def test_three_letter_words_mostly_stable(self):
        assert stem("sky") == "sky"
        assert stem("was") == "wa"  # classic Porter quirk

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            stem(123)  # type: ignore[arg-type]

    def test_cache_returns_same_result(self):
        memo = memo_of(MemoizedStemmer())
        first = memo_stem(memo, "relational")
        second = memo_stem(memo, "relational")
        assert first == second == "relat"

    def test_uncached_matches_cached(self):
        memo = memo_of(MemoizedStemmer())
        uncached = PorterStemmer()
        for word, _ in KNOWN_PAIRS:
            assert memo_stem(memo, word) == uncached.stem(word)

    def test_callable_protocol(self):
        stemmer = PorterStemmer()
        assert stemmer("running") == stemmer.stem("running")


class TestStemmerProperties:
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz",
                   min_size=1, max_size=30))
    def test_never_raises_never_grows(self, word):
        result = stem(word)
        assert isinstance(result, str)
        assert len(result) <= len(word)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz",
                   min_size=3, max_size=30))
    def test_deterministic(self, word):
        assert stem(word) == stem(word)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz",
                   min_size=1, max_size=30))
    def test_output_is_lowercase_alpha(self, word):
        assert all(ch.islower() for ch in stem(word) if ch.isalpha())

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz",
                   min_size=1, max_size=2))
    def test_one_and_two_letter_words_unchanged(self, word):
        assert stem(word) == word

    @given(st.sampled_from([w for w, _ in KNOWN_PAIRS]))
    def test_same_word_same_stem_across_instances(self, word):
        assert PorterStemmer().stem(word) == PorterStemmer().stem(word)


class TestMemoizedStemmer:
    def test_same_stems_as_wrapped(self):
        memo = memo_of(MemoizedStemmer())
        porter = PorterStemmer()
        for word in ("relational", "conflated", "caresses", "sky", "ab"):
            assert memo_stem(memo, word) == porter(word)

    def test_hit_miss_accounting(self):
        stemmer = MemoizedStemmer()
        memo = memo_of(stemmer)
        memo_stem(memo, "running")
        memo_stem(memo, "running")
        memo_stem(memo, "jumping")
        info = stemmer.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 2
        assert info["currsize"] == 2

    def test_cache_clear_resets(self):
        stemmer = MemoizedStemmer()
        memo_stem(memo_of(stemmer), "running")
        stemmer.cache_clear()
        info = stemmer.cache_info()
        assert info == {"hits": 0, "misses": 0,
                        "maxsize": 1 << 16, "currsize": 0}

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            MemoizedStemmer(maxsize=0)

    @given(st.text(alphabet=st.characters(min_codepoint=97,
                                          max_codepoint=122),
                   min_size=1, max_size=12))
    def test_memo_never_changes_the_answer(self, word):
        memo = memo_of(MemoizedStemmer(maxsize=8))
        uncached = PorterStemmer()
        assert memo_stem(memo, word) == uncached(word) == memo_stem(memo, word)


def memo_of(stemmer: MemoizedStemmer):
    """``stemmer``'s term memo for a tokenizer and stop list that keep
    every word, so each lookup answers with the word's stem."""
    return stemmer.term_memo(Tokenizer(min_length=1), frozenset())


def memo_stem(memo, word: str) -> str:
    return memo.lookup([word.encode("ascii")])[0]
