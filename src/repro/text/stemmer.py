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

Like Porter's own reference code, a word is classified once: its
consonant/vowel map is a string with one ``c`` or ``v`` per letter
(``aeiou`` are vowels, and so is a ``y`` after a consonant). Whether a
letter is a vowel depends only on the letters before it, so the map of
a stem is a prefix of the word's map, and every condition is read off
such a prefix in C: the measure m is the number of ``vc`` pairs in it,
*v* is "has a ``v``", *d is "ends in two equal letters, the last a
``c``", and *o is "ends ``cvc``, the last letter not w, x or y". A step
that drops a suffix cuts the map; one that writes a new ending appends
that ending's map, which is fixed because no replacement holds a
``y``. Steps 2, 3 and 4 look their suffixes up by the word's
penultimate letter, which every matching suffix shares; within a
letter the article's order is kept, so the first suffix the word ends
with still ends the step.

The rule-by-rule form, which rescans a stem for each condition, is
kept as the oracle in ``tests/oracles/stemmer.py``; the two give every
word the same stem.

>>> stem("relational")
'relat'
>>> stem("conflated")
'conflat'
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Tuple

from .memo import DEFAULT_MAXSIZE, TermMemo
from .tokenizer import Tokenizer

__all__ = ["MemoizedStemmer", "PorterStemmer", "stem"]


class _LetterClasses(Dict[int, str]):
    """``str.translate`` table to ``v`` (aeiou), ``y`` (not yet
    classified) or ``c``; a letter outside ASCII is a consonant."""

    def __missing__(self, code: int) -> str:
        return "c"


_CLASSES = _LetterClasses(
    (code, "v" if chr(code) in "aeiou" else "y" if chr(code) == "y" else "c")
    for code in range(128)
)


def _cv_map(word: str) -> str:
    """One ``c`` or ``v`` per letter of ``word``: a ``y`` is a vowel
    after a consonant and a consonant first or after a vowel."""
    cv = word.translate(_CLASSES)
    if "y" in cv:
        if cv[0] == "y":
            cv = "c" + cv[1:]
        # each pass classifies at least the first y left
        while "y" in cv:
            cv = cv.replace("cy", "cv").replace("vy", "vc")
    return cv


def _by_penultimate(
    rules: Tuple[Tuple[str, str], ...]
) -> Dict[str, Tuple[Tuple[str, str, str], ...]]:
    """``(suffix, replacement)`` rules grouped by the suffix's
    penultimate letter, in their order, each with the replacement's
    consonant/vowel map."""
    table: Dict[str, Tuple[Tuple[str, str, str], ...]] = {}
    for suffix, repl in rules:
        table[suffix[-2]] = table.get(suffix[-2], ()) + (
            (suffix, repl, _cv_map(repl)),
        )
    return table


# the article's rules, in its order
_STEP2 = _by_penultimate((
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
    ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
    ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"),
    ("biliti", "ble"),
))
_STEP3 = _by_penultimate((
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
))
_STEP4 = _by_penultimate(tuple((suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)))


class PorterStemmer:
    """Stateless Porter stemmer; a memo belongs in front of it
    (:class:`MemoizedStemmer`), not inside."""

    def stem(self, word: str) -> str:
        """Return the Porter stem of ``word`` (expects lowercase input)."""
        if not isinstance(word, str):
            raise TypeError(f"word must be str, got {type(word).__name__}")
        if len(word) <= 2:
            return word
        return _stem_uncached(word)

    def __call__(self, word: str) -> str:
        return self.stem(word)


def _stem_uncached(word: str) -> str:
    """The Porter stem of a word of three letters or more. No step
    empties the word, so ``word[-1]`` always exists."""
    cv = _cv_map(word)

    # step 1a
    if word[-1] == "s":
        if word.endswith(("sses", "ies")):
            word, cv = word[:-2], cv[:-2]
        elif word[-2] != "s":
            word, cv = word[:-1], cv[:-1]

    # step 1b
    if word.endswith("eed"):
        if cv.count("vc", 0, -3):
            word, cv = word[:-1], cv[:-1]
    else:
        cut = 2 if word.endswith("ed") else 3 if word.endswith("ing") else 0
        if cut and "v" in cv[:-cut]:
            word, cv = word[:-cut], cv[:-cut]
            if word.endswith(("at", "bl", "iz")):
                word, cv = word + "e", cv + "v"
            elif (len(word) > 1 and word[-1] == word[-2]
                  and cv[-1] == "c" and word[-1] not in "lsz"):
                word, cv = word[:-1], cv[:-1]
            elif (cv.count("vc") == 1 and cv.endswith("cvc")
                  and word[-1] not in "wxy"):
                word, cv = word + "e", cv + "v"

    # step 1c
    if word[-1] == "y" and "v" in cv[:-1]:
        word, cv = word[:-1] + "i", cv[:-1] + "v"

    # steps 2 and 3: the first suffix the word ends with ends the step
    for rules in (_STEP2, _STEP3):
        for suffix, repl, repl_cv in rules.get(word[-2:-1], ()):
            if word.endswith(suffix):
                cut = len(word) - len(suffix)
                if cv.count("vc", 0, cut):
                    word, cv = word[:cut] + repl, cv[:cut] + repl_cv
                break

    # step 4
    for suffix, _, _ in _STEP4.get(word[-2:-1], ()):
        if word.endswith(suffix):
            cut = len(word) - len(suffix)
            if cv.count("vc", 0, cut) > 1 and (
                suffix != "ion" or word[cut - 1] in "st"
            ):
                word, cv = word[:cut], cv[:cut]
            break

    # step 5a
    if word[-1] == "e":
        cut = len(word) - 1
        m = cv.count("vc", 0, cut)
        if m > 1 or m == 1 and not (
            cv.endswith("cvc", 0, cut) and word[cut - 1] not in "wxy"
        ):
            word, cv = word[:cut], cv[:cut]

    # step 5b
    if word.endswith("ll") and cv.count("vc") > 1:
        word = word[:-1]
    return word


_DEFAULT_STEMMER = PorterStemmer()


def stem(word: str) -> str:
    """Stem ``word`` with a shared default :class:`PorterStemmer`."""
    return _DEFAULT_STEMMER.stem(word)


class MemoizedStemmer:
    """A ``token -> stem`` callable and the term memos that stem with it.

    Token streams are Zipfian, so a memo absorbs almost every lookup
    (hit rates around 99% on news text). This class owns the
    :class:`~repro.text.memo.TermMemo` of every
    :class:`~repro.text.TextPipeline` that stems with it, one per set
    of filter settings (:meth:`term_memo`), each bounded by
    ``maxsize``. :meth:`cache_info` sums their counters and sizes,
    which the text pipeline exports as gauges, and :meth:`cache_clear`
    empties them all.

    >>> stemmer = MemoizedStemmer(maxsize=4096)
    >>> memo = stemmer.term_memo(Tokenizer(), frozenset())
    >>> memo.lookup([b"relational"]), memo.lookup([b"relational"])
    (['relat'], ['relat'])
    >>> stemmer.cache_info()
    {'hits': 1, 'misses': 1, 'maxsize': 4096, 'currsize': 1}
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
        self.stemmer = stemmer if stemmer is not None else PorterStemmer()
        self.maxsize = maxsize
        self._memos: Dict[Tuple[Tuple[int, bool, int], FrozenSet[str]],
                          TermMemo] = {}

    def term_memo(
        self, tokenizer: Tokenizer, stopwords: FrozenSet[str]
    ) -> TermMemo:
        """The term memo for these filter settings, made on first use.

        Pipelines with equal settings share one memo. It stems with the
        wrapped callable, so each token looked up counts once.
        """
        return self._memos.setdefault(
            (tokenizer.settings, stopwords),
            TermMemo(tokenizer, stopwords, self.stemmer, self.maxsize),
        )

    def cache_info(self) -> Dict[str, int]:
        """``{hits, misses, maxsize, currsize}`` over the term memos —
        for gauges and tests."""
        memos = list(self._memos.values())
        return {
            "hits": sum(memo.hits for memo in memos),
            "misses": sum(memo.misses for memo in memos),
            "maxsize": self.maxsize,
            "currsize": sum(map(len, memos)),
        }

    def cache_clear(self) -> None:
        """Empty every term memo and reset its counters."""
        for memo in list(self._memos.values()):
            memo.clear()
