"""The library's Porter stemmer against the rule-by-rule oracle.

:class:`repro.text.PorterStemmer` reads Porter's conditions off one
consonant/vowel map per word and looks its step 2-4 suffixes up by the
penultimate letter; :class:`tests.oracles.stemmer.ReferenceStemmer`
rescans the stem for every condition and tries every suffix in the
article's order. Both must give every word the same stem: every surface
form of the seed-1998 stream, generated words built to reach each rule
(``y`` runs, digits, ``'`` and ``-`` included), and the known pairs.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import PorterStemmer
from repro.text.tokenizer import surface_tokens
from tests.oracles.stemmer import ReferenceStemmer
from tests.text.test_stemmer import KNOWN_PAIRS

ORACLE = ReferenceStemmer()

#: Every suffix a Porter step tests for, and the step-1b endings that
#: gain an ``e`` back.
SUFFIXES = sorted({
    "s", "sses", "ies", "ss", "eed", "ed", "ing", "y",
    "at", "bl", "iz", "ate", "ble", "ize",
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli",
    "eli", "ousli", "ization", "ation", "ator", "alism", "iveness",
    "fulness", "ousness", "aliti", "iviti", "biliti",
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "sion", "tion", "ou", "ism", "iti", "ous",
    "ive", "e", "ll",
})

#: Stems over the tokenizer's alphabet, weighted towards ``y`` runs.
STEMS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789'-yyyy",
                min_size=0, max_size=9)

WORDS = st.builds(
    lambda stem, suffixes, ys: stem + "y" * ys + "".join(suffixes),
    STEMS,
    st.lists(st.sampled_from(SUFFIXES), max_size=2),
    st.integers(min_value=0, max_value=3),
)


def _stems(words: List[str]) -> List[str]:
    stemmer = PorterStemmer()
    return [stemmer.stem(word) for word in words]


def test_every_surface_form_of_the_stream(stream_texts):
    forms = sorted({token.decode("ascii")
                    for text in stream_texts
                    for token in surface_tokens(text)})
    assert len(forms) > 3000
    assert _stems(forms) == [ORACLE.stem(word) for word in forms]


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(WORDS)
def test_generated_words(word):
    assert PorterStemmer().stem(word) == ORACLE.stem(word)


@pytest.mark.parametrize("word,expected", KNOWN_PAIRS)
def test_known_pairs(word, expected):
    assert ORACLE.stem(word) == expected
    assert PorterStemmer().stem(word) == expected


@pytest.mark.parametrize("word", [
    "yyyyy", "syzygy", "yearly", "toyings", "keyed", "enjoyably",
    "ÿyelled", "KYYing", "naïvely", "o'reillys", "x-rayed", "1990s",
    "opinions", "championing", "decisions", "questioned",
])
def test_words_outside_the_stream(word):
    assert PorterStemmer().stem(word) == ORACLE.stem(word)
