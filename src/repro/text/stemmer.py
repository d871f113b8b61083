"""Porter stemming algorithm (Porter, 1980), implemented from scratch.

This is the original algorithm — not Porter2/Snowball — chosen because it
is the de-facto standard in the IR literature contemporary with the paper
(Scatter/Gather, TDT, SMART all used it).

The implementation follows the step structure of the original article:

* Step 1a  — plurals (``caresses`` -> ``caress``, ``ponies`` -> ``poni``)
* Step 1b  — ``-eed``/``-ed``/``-ing`` with cleanup rules
* Step 1c  — terminal ``y`` -> ``i`` when a vowel precedes
* Step 2/3 — double/compound suffixes (``-ational`` -> ``-ate`` ...)
* Step 4   — drop residual suffixes when the measure allows
* Step 5   — tidy terminal ``e`` and double ``l``

>>> stem("relational")
'relat'
>>> stem("conflated")
'conflat'
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from .memo import DEFAULT_MAXSIZE, TermMemo
from .tokenizer import Tokenizer

__all__ = ["MemoizedStemmer", "PorterStemmer", "stem"]

_VOWELS = frozenset("aeiou")


class PorterStemmer:
    """Stateless Porter stemmer with an internal memo cache.

    The cache makes repeated stemming of a Zipfian token stream cheap;
    it is bounded only by vocabulary size, which for news corpora is
    small (tens of thousands of surface forms).
    """

    def __init__(self, cache: bool = True) -> None:
        self._cache: Optional[Dict[str, str]] = {} if cache else None

    # -- public API --------------------------------------------------

    def stem(self, word: str) -> str:
        """Return the Porter stem of ``word`` (expects lowercase input)."""
        if not isinstance(word, str):
            raise TypeError(f"word must be str, got {type(word).__name__}")
        if len(word) <= 2:
            return word
        if self._cache is not None:
            cached = self._cache.get(word)
            if cached is not None:
                return cached
        result = self._stem_uncached(word)
        if self._cache is not None:
            self._cache[word] = result
        return result

    def __call__(self, word: str) -> str:
        return self.stem(word)

    # -- consonant/vowel machinery ------------------------------------

    @staticmethod
    def _is_consonant(word: str, i: int) -> bool:
        ch = word[i]
        if ch in _VOWELS:
            return False
        if ch == "y":
            return i == 0 or not PorterStemmer._is_consonant(word, i - 1)
        return True

    @staticmethod
    def _measure(stem_part: str) -> int:
        """Return m, the number of VC sequences in ``stem_part``."""
        m = 0
        prev_was_vowel = False
        for i in range(len(stem_part)):
            if PorterStemmer._is_consonant(stem_part, i):
                if prev_was_vowel:
                    m += 1
                prev_was_vowel = False
            else:
                prev_was_vowel = True
        return m

    @staticmethod
    def _contains_vowel(stem_part: str) -> bool:
        return any(
            not PorterStemmer._is_consonant(stem_part, i)
            for i in range(len(stem_part))
        )

    @staticmethod
    def _ends_double_consonant(word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and PorterStemmer._is_consonant(word, len(word) - 1)
        )

    @staticmethod
    def _ends_cvc(word: str) -> bool:
        """*o condition: stem ends cvc where the final c is not w, x, y."""
        if len(word) < 3:
            return False
        if (
            PorterStemmer._is_consonant(word, len(word) - 3)
            and not PorterStemmer._is_consonant(word, len(word) - 2)
            and PorterStemmer._is_consonant(word, len(word) - 1)
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
        if PorterStemmer._measure(stem_part) > min_m:
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
            if PorterStemmer._measure(stem_part) > 0:
                return word[:-1]
            return word
        fired = False
        if word.endswith("ed"):
            stem_part = word[:-2]
            if PorterStemmer._contains_vowel(stem_part):
                word = stem_part
                fired = True
        elif word.endswith("ing"):
            stem_part = word[:-3]
            if PorterStemmer._contains_vowel(stem_part):
                word = stem_part
                fired = True
        if fired:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if PorterStemmer._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if PorterStemmer._measure(word) == 1 and PorterStemmer._ends_cvc(word):
                return word + "e"
        return word

    @staticmethod
    def _step1c(word: str) -> str:
        if word.endswith("y") and PorterStemmer._contains_vowel(word[:-1]):
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
            m = PorterStemmer._measure(stem_part)
            if m > 1:
                return stem_part
            if m == 1 and not PorterStemmer._ends_cvc(stem_part):
                return stem_part
        return word

    @staticmethod
    def _step5b(word: str) -> str:
        if (
            word.endswith("ll")
            and PorterStemmer._measure(word) > 1
        ):
            return word[:-1]
        return word


_DEFAULT_STEMMER = PorterStemmer()


def stem(word: str) -> str:
    """Stem ``word`` with a shared default :class:`PorterStemmer`."""
    return _DEFAULT_STEMMER.stem(word)


class MemoizedStemmer:
    """Bounded LRU memo around any ``token -> stem`` callable.

    Token streams are Zipfian, so a small cache absorbs almost every
    lookup (hit rates around 99% on news text). Unlike
    ``PorterStemmer``'s built-in memo — a plain dict that grows with
    the surface vocabulary and keeps no statistics — this wrapper
    evicts least-recently-used entries at ``maxsize`` and counts
    hits/misses, which the text pipeline exports as gauges.

    It also owns the :class:`~repro.text.memo.TermMemo` of every
    :class:`~repro.text.TextPipeline` that stems with it, one per set
    of filter settings (:meth:`term_memo`). Each is bounded by
    ``maxsize``; :meth:`cache_info` counts their lookups with its own,
    and :meth:`cache_clear` empties them all.

    Picklable, so a pipeline carrying one can cross a process-pool
    boundary (each worker starts with a copy of the cache as of the
    fork; hit counters are per-process).

    >>> stemmer = MemoizedStemmer(maxsize=4096)
    >>> stemmer("relational")
    'relat'
    >>> stemmer.cache_info()["misses"]
    1
    >>> stemmer("relational") == stemmer("relational")
    True
    >>> stemmer.cache_info()["hits"]
    2
    """

    def __init__(
        self,
        stemmer: Optional[Callable[[str], str]] = None,
        maxsize: int = DEFAULT_MAXSIZE,
    ) -> None:
        if not isinstance(maxsize, int) or maxsize < 1:
            raise ValueError(
                f"maxsize must be an int >= 1, got {maxsize!r}"
            )
        # wrap a cache-less Porter by default: double-caching would
        # just hold every stem twice
        self.stemmer = (
            stemmer if stemmer is not None else PorterStemmer(cache=False)
        )
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._cache: "OrderedDict[str, str]" = OrderedDict()
        self._memos: Dict[Tuple[Tuple[int, bool, int], FrozenSet[str]],
                          TermMemo] = {}

    def __call__(self, word: str) -> str:
        cache = self._cache
        stemmed = cache.get(word)
        if stemmed is not None:
            self.hits += 1
            cache.move_to_end(word)
            return stemmed
        self.misses += 1
        stemmed = self.stemmer(word)
        cache[word] = stemmed
        if len(cache) > self.maxsize:
            cache.popitem(last=False)
        return stemmed

    def term_memo(
        self, tokenizer: Tokenizer, stopwords: FrozenSet[str]
    ) -> TermMemo:
        """The term memo for these filter settings, made on first use.

        Pipelines with equal settings share one memo. It stems with the
        wrapped callable directly, so each token looked up counts once.
        """
        return self._memos.setdefault(
            (tokenizer.settings, stopwords),
            TermMemo(tokenizer, stopwords, self.stemmer, self.maxsize),
        )

    def cache_info(self) -> Dict[str, int]:
        """``{hits, misses, maxsize, currsize}`` — for gauges and tests.

        Counts and sizes cover the term memos too.
        """
        memos = list(self._memos.values())
        return {
            "hits": self.hits + sum(memo.hits for memo in memos),
            "misses": self.misses + sum(memo.misses for memo in memos),
            "maxsize": self.maxsize,
            "currsize": len(self._cache) + sum(map(len, memos)),
        }

    def cache_clear(self) -> None:
        """Empty the cache and every term memo, and reset the counters."""
        self._cache.clear()
        for memo in list(self._memos.values()):
            memo.clear()
        self.hits = 0
        self.misses = 0
