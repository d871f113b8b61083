"""Porter's 1980 stemmer written rule by rule, kept as the oracle for
:class:`repro.text.PorterStemmer`.

Every condition is computed from scratch on the substring it names:
``_is_consonant`` walks back through ``y``s, ``_measure`` rescans the
stem for each suffix tried, and each step tries its suffixes in the
article's order until the first one the word ends with. The library
stemmer computes the word's consonant/vowel map once and reads the
same conditions off prefixes of it; both must give every word the same
stem.
"""

from __future__ import annotations

from typing import Tuple

_VOWELS = frozenset("aeiou")


class ReferenceStemmer:
    """The Porter stemmer one condition at a time, with no memo."""

    def stem(self, word: str) -> str:
        """Return the Porter stem of ``word`` (expects lowercase input)."""
        if not isinstance(word, str):
            raise TypeError(f"word must be str, got {type(word).__name__}")
        if len(word) <= 2:
            return word
        return self._stem_uncached(word)

    def __call__(self, word: str) -> str:
        return self.stem(word)

    # -- consonant/vowel machinery ------------------------------------

    @staticmethod
    def _is_consonant(word: str, i: int) -> bool:
        ch = word[i]
        if ch in _VOWELS:
            return False
        if ch == "y":
            return i == 0 or not ReferenceStemmer._is_consonant(word, i - 1)
        return True

    @staticmethod
    def _measure(stem_part: str) -> int:
        """Return m, the number of VC sequences in ``stem_part``."""
        m = 0
        prev_was_vowel = False
        for i in range(len(stem_part)):
            if ReferenceStemmer._is_consonant(stem_part, i):
                if prev_was_vowel:
                    m += 1
                prev_was_vowel = False
            else:
                prev_was_vowel = True
        return m

    @staticmethod
    def _contains_vowel(stem_part: str) -> bool:
        return any(
            not ReferenceStemmer._is_consonant(stem_part, i)
            for i in range(len(stem_part))
        )

    @staticmethod
    def _ends_double_consonant(word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and ReferenceStemmer._is_consonant(word, len(word) - 1)
        )

    @staticmethod
    def _ends_cvc(word: str) -> bool:
        """*o condition: stem ends cvc where the final c is not w, x, y."""
        if len(word) < 3:
            return False
        if (
            ReferenceStemmer._is_consonant(word, len(word) - 3)
            and not ReferenceStemmer._is_consonant(word, len(word) - 2)
            and ReferenceStemmer._is_consonant(word, len(word) - 1)
        ):
            return word[-1] not in "wxy"
        return False

    # -- rule application ---------------------------------------------

    @staticmethod
    def _replace_if_m(word: str, suffix: str, repl: str, min_m: int) -> Tuple[str, bool]:
        """If ``word`` ends with ``suffix`` and m(stem) > min_m, replace it.

        Returns ``(new_word, rule_fired)`` where ``rule_fired`` means the
        suffix matched (whether or not the m condition passed), which is
        the Porter convention: the first matching suffix in a step
        consumes the step.
        """
        if not word.endswith(suffix):
            return word, False
        stem_part = word[: len(word) - len(suffix)]
        if ReferenceStemmer._measure(stem_part) > min_m:
            return stem_part + repl, True
        return word, True

    def _stem_uncached(self, word: str) -> str:
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    @staticmethod
    def _step1a(word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    @staticmethod
    def _step1b(word: str) -> str:
        if word.endswith("eed"):
            stem_part = word[:-3]
            if ReferenceStemmer._measure(stem_part) > 0:
                return word[:-1]
            return word
        fired = False
        if word.endswith("ed"):
            stem_part = word[:-2]
            if ReferenceStemmer._contains_vowel(stem_part):
                word = stem_part
                fired = True
        elif word.endswith("ing"):
            stem_part = word[:-3]
            if ReferenceStemmer._contains_vowel(stem_part):
                word = stem_part
                fired = True
        if fired:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if ReferenceStemmer._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if ReferenceStemmer._measure(word) == 1 and ReferenceStemmer._ends_cvc(word):
                return word + "e"
        return word

    @staticmethod
    def _step1c(word: str) -> str:
        if word.endswith("y") and ReferenceStemmer._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_RULES = (
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    )

    @classmethod
    def _step2(cls, word: str) -> str:
        for suffix, repl in cls._STEP2_RULES:
            new_word, fired = cls._replace_if_m(word, suffix, repl, 0)
            if fired:
                return new_word
        return word

    _STEP3_RULES = (
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    )

    @classmethod
    def _step3(cls, word: str) -> str:
        for suffix, repl in cls._STEP3_RULES:
            new_word, fired = cls._replace_if_m(word, suffix, repl, 0)
            if fired:
                return new_word
        return word

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    @classmethod
    def _step4(cls, word: str) -> str:
        for suffix in cls._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem_part = word[: len(word) - len(suffix)]
                if cls._measure(stem_part) > 1:
                    if suffix == "ion" and (not stem_part or stem_part[-1] not in "st"):
                        return word
                    return stem_part
                return word
        return word

    @staticmethod
    def _step5a(word: str) -> str:
        if word.endswith("e"):
            stem_part = word[:-1]
            m = ReferenceStemmer._measure(stem_part)
            if m > 1:
                return stem_part
            if m == 1 and not ReferenceStemmer._ends_cvc(stem_part):
                return stem_part
        return word

    @staticmethod
    def _step5b(word: str) -> str:
        if (
            word.endswith("ll")
            and ReferenceStemmer._measure(word) > 1
        ):
            return word[:-1]
        return word
