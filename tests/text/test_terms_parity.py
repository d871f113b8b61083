"""The memoised text pipeline against the per-token oracle.

``Vocabulary.add_counts`` assigns term ids in the order of the counts
it is given, so every comparison is of ``list(counts.items())``: same
terms, same counts, same order.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text import MemoizedStemmer, TextPipeline, Tokenizer
from tests.oracles.text import ReferencePipeline
from tests.text.conftest import EDGE_TEXTS


def _first_four_or_nothing(word: str) -> str:
    # a custom stemmer that also empties some tokens
    return "" if word.startswith("q") else word[:4]


#: (id, TextPipeline/ReferencePipeline keyword arguments)
CONFIGURATIONS = [
    ("no-stemmer", dict(stemmer=None)),
    ("custom-stemmer", dict(stemmer=_first_four_or_nothing)),
    ("min-length-3-no-numbers",
     dict(tokenizer=Tokenizer(min_length=3, keep_numbers=False))),
    ("min-number-length-2", dict(tokenizer=Tokenizer(min_number_length=2))),
    ("no-stopwords", dict(stopwords=frozenset())),
    ("plain-set-stopwords", dict(stopwords={"market", "the"})),
    ("everything", dict(tokenizer=Tokenizer(min_length=1),
                        stopwords=frozenset(), stemmer=None)),
]


def assert_parity(pipeline, oracle, texts):
    for text in texts:
        assert list(pipeline.term_frequencies(text).items()) == list(
            oracle.term_frequencies(text).items()
        ), text
        assert pipeline.terms(text) == oracle.terms(text), text


class TestFullStream:
    def test_default_pipeline_matches_oracle_on_every_text(
        self, stream_texts
    ):
        assert len(stream_texts) == 7578
        assert_parity(TextPipeline(), ReferencePipeline(), stream_texts)

    def test_default_pipeline_matches_oracle_on_edge_texts(self):
        assert_parity(TextPipeline(), ReferencePipeline(), EDGE_TEXTS)


@pytest.mark.parametrize(
    "kwargs", [kwargs for _, kwargs in CONFIGURATIONS],
    ids=[name for name, _ in CONFIGURATIONS],
)
def test_configuration_matches_oracle(kwargs, stream_texts):
    assert_parity(
        TextPipeline(**kwargs), ReferencePipeline(**kwargs),
        EDGE_TEXTS + stream_texts[:300],
    )


@pytest.mark.parametrize("maxsize", [1, 2, 7])
def test_eviction_changes_no_output(maxsize, stream_texts):
    pipeline = TextPipeline(stemmer=MemoizedStemmer(maxsize=maxsize))
    assert_parity(pipeline, ReferencePipeline(),
                  EDGE_TEXTS + stream_texts[:200])


@given(st.text(max_size=200))
def test_any_text_matches_oracle(text):
    assert_parity(TextPipeline(), ReferencePipeline(), [text])


@given(st.text(alphabet="ab1'- .", max_size=60))
def test_punctuation_runs_match_oracle(text):
    kwargs = dict(tokenizer=Tokenizer(min_length=1, min_number_length=1),
                  stopwords=frozenset(), stemmer=None)
    assert_parity(TextPipeline(**kwargs), ReferencePipeline(**kwargs),
                  [text])


@pytest.mark.parametrize("value", [b"bytes", None, 42, ["a list"]])
def test_non_str_input_raises_type_error(value):
    pipeline = TextPipeline()
    with pytest.raises(TypeError):
        pipeline.term_frequencies(value)
    with pytest.raises(TypeError):
        pipeline.terms(value)
