"""Run the doctests embedded in module and class docstrings.

Keeps every ``>>>`` example in the documentation honest.
"""

import doctest

import pytest

import repro.eval.contingency
import repro.experiments.reporting
import repro.forgetting.model
import repro.text
import repro.text.memo
import repro.text.pipeline
import repro.text.stemmer
import repro.text.tokenizer
import repro.text.vocabulary
import tests.oracles.sparse

MODULES = [
    repro.text,
    repro.text.memo,
    repro.text.tokenizer,
    repro.text.stemmer,
    repro.text.vocabulary,
    repro.text.pipeline,
    repro.forgetting.model,
    repro.experiments.reporting,
    tests.oracles.sparse,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    results = doctest.testmod(
        module, optionflags=doctest.NORMALIZE_WHITESPACE, verbose=False
    )
    assert results.failed == 0, f"{module.__name__}: {results.failed} failed"
    assert results.attempted > 0, f"{module.__name__} has no doctests"
