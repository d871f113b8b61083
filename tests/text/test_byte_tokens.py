"""The byte tokenizer against the str regex; the counting path's
counters, and its sharing between threads.

:func:`~repro.text.tokenizer.surface_tokens` folds text to ASCII bytes
with one table and splits it; the tokens must be those of the regex
over ``text.lower()`` on any text, including characters whose
lowercase form is ASCII (U+212A KELVIN SIGN, U+0130) and words joined
by a separator, which ``st.text()`` rarely draws.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import MemoizedStemmer, TextPipeline
from repro.text.tokenizer import surface_tokens
from tests.oracles.text import TOKEN_RE, ReferencePipeline
from tests.text.conftest import EDGE_TEXTS, generated_texts

#: Letters of both cases and digits, the two joiners, whitespace and
#: punctuation, and non-ASCII letters that lowercase to ASCII or grow.
HOSTILE_ALPHABET = (
    "abcxyzABCXYZ019" "'-" " \t\n.,;!?()\"" "\u212a\u0130\u00df\u00c9"
)


def decoded(text: str):
    return [token.decode("ascii") for token in surface_tokens(text)]


@given(st.text(alphabet=HOSTILE_ALPHABET, max_size=80))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_hostile_text_matches_the_str_regex_and_the_oracle(text):
    assert decoded(text) == TOKEN_RE.findall(text.lower())
    assert list(TextPipeline().term_frequencies(text).items()) == list(
        ReferencePipeline().term_frequencies(text).items()
    )


def test_edge_and_stream_texts_match_the_str_regex(stream_texts):
    for text in EDGE_TEXTS + stream_texts:
        assert decoded(text) == TOKEN_RE.findall(text.lower()), text


@pytest.mark.parametrize("maxsize", [1, 2, 7])
def test_count_path_counts_as_the_sequence_path(maxsize, stream_texts):
    # term_frequencies counts (max_ngram=1); terms() maps the sequence
    counting = MemoizedStemmer(maxsize=maxsize)
    sequence = MemoizedStemmer(maxsize=maxsize)
    by_count = TextPipeline(stemmer=counting)
    by_sequence = TextPipeline(stemmer=sequence)
    texts = EDGE_TEXTS + stream_texts[:200]
    for text in texts:
        by_count.term_frequencies(text)
        by_sequence.terms(text)
    info = counting.cache_info()
    assert info == sequence.cache_info()
    assert info["hits"] + info["misses"] == sum(
        len(surface_tokens(text)) for text in texts
    )
    assert info["hits"] > 0 and info["misses"] > 0


def test_count_path_shared_by_threads_under_forced_switching():
    # the unigram path of the lock-free sharing test in
    # test_term_memo_threads.py: a memo of 4 keeps being emptied under
    # the other threads, between a document's first map and its refill
    texts = EDGE_TEXTS + [text[:300] for text in generated_texts(7, 60)]
    pipeline = TextPipeline(stemmer=MemoizedStemmer(maxsize=4))
    oracle = ReferencePipeline()
    expected = [list(oracle.term_frequencies(t).items()) for t in texts]
    mismatches, errors = [], []
    barrier = threading.Barrier(4, timeout=60)

    def work(offset: int) -> None:
        try:
            barrier.wait()
            for i in range(2 * len(texts)):
                index = (i + offset) % len(texts)
                got = pipeline.term_frequencies(texts[index])
                if list(got.items()) != expected[index]:
                    mismatches.append(index)
        except Exception as error:  # a KeyError from a race too
            errors.append(error)

    threads = [threading.Thread(target=work, args=(13 * i,), daemon=True)
               for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and mismatches == []
