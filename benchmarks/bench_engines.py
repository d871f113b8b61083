"""Engine comparison — matrix vs the dense oracle on the Table 1 workload.

Times the ``matrix`` engine against the tests' ``dense`` oracle
(``tests/oracles/dense.py``, registered by this directory's conftest)
on the Experiment 1 stream (the same
~4.3k-document, K=32 corpus as ``bench_table1_timing.py``) at two
granularities:

* ``fit`` — one full extended-K-means run from random seeds, which
  includes the engine-independent vectorisation and bookkeeping, and
* ``pass`` — one steady-state assignment sweep (``best_gains`` over
  every document against a converged clustering), the hot path the
  engine layer exists to accelerate.

Besides the human-readable table, the module writes
``benchmarks/reports/BENCH_engines.json`` — a machine-readable
trajectory point perf PRs diff against — and asserts the two stay
*assignment-identical* under the shared seed (the same invariant the CI
parity job checks on a smaller stream). ``REPRO_BENCH_QUICK=1`` shrinks
the stream and the rounds so CI can smoke-run the module on every push.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from repro import CorpusStatistics, ForgettingModel, NoveltyKMeans
from repro.core.engines import resolve_engine
from repro.corpus.synthetic import TDT2Generator
from repro.experiments import ExperimentOneConfig, render_table
from repro.vectors.tfidf import NoveltyTfidfWeighter

ENGINES = ("dense", "matrix")
BENCH_ENGINES_PATH = Path(__file__).parent / "reports" / "BENCH_engines.json"
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
K = 32
SEED = 3
FIT_ROUNDS = 1 if QUICK else 3
PASS_ROUNDS = 1 if QUICK else 3


@pytest.fixture(scope="module")
def table1_stats():
    config = ExperimentOneConfig(
        seed=1998, unlabeled_per_day=20.0 if QUICK else 215.0
    )
    repo = TDT2Generator(config.corpus_config()).generate()
    docs = [d for d in repo.documents() if d.timestamp < config.days]
    docs.sort(key=lambda d: d.timestamp)
    model = ForgettingModel(config.half_life, config.life_span)
    return CorpusStatistics.from_scratch(
        model, docs, at_time=float(config.days)
    )


def _fit(stats, engine):
    kmeans = NoveltyKMeans(k=K, seed=SEED, engine=engine)
    return kmeans.fit(stats.documents(), stats)


def _time_fit(stats, engine, rounds):
    best = math.inf
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = _fit(stats, engine)
        best = min(best, time.perf_counter() - start)
    return best, result


def _time_pass(stats, engine, rounds):
    """Steady-state ``best_gains`` sweep over every active document."""
    docs = stats.documents()
    vectors = NoveltyTfidfWeighter(stats).weighted_arrays(docs)
    doc_ids = [doc.doc_id for doc in docs]
    backend = resolve_engine(engine)(K, vectors, "g")
    rng = random.Random(SEED)
    for doc_id in doc_ids:
        backend.add(rng.randrange(K), doc_id)
    backend.refresh()
    backend.best_gains(doc_ids)  # settle one-off costs (Gram cache etc.)
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        backend.best_gains(doc_ids)
        best = min(best, time.perf_counter() - start)
    return best


def bench_engine_comparison(table1_stats, reporter):
    engines = ENGINES
    fit_seconds = {}
    pass_seconds = {}
    results = {}
    for engine in engines:
        fit_seconds[engine], results[engine] = _time_fit(
            table1_stats, engine, FIT_ROUNDS
        )
        pass_seconds[engine] = _time_pass(table1_stats, engine, PASS_ROUNDS)

    reference = results["dense"]
    for engine in engines:
        result = results[engine]
        assert result.assignments() == reference.assignments(), engine
        assert math.isclose(
            result.clustering_index, reference.clustering_index,
            rel_tol=1e-9,
        ), engine

    rows = [
        [
            engine,
            f"{fit_seconds[engine]:.3f}",
            f"{fit_seconds['dense'] / fit_seconds[engine]:.2f}x",
            f"{pass_seconds[engine] * 1e3:.1f}",
            f"{pass_seconds['dense'] / pass_seconds[engine]:.2f}x",
            f"{results[engine].clustering_index:.6e}",
        ]
        for engine in engines
    ]
    reporter.add(
        "engine_comparison",
        render_table(
            ["engine", "fit s", "vs dense", "pass ms", "vs dense", "G"],
            rows,
            title=f"Engines on the Table 1 workload "
                  f"({table1_stats.size} docs, K={K}, seed={SEED}; "
                  f"identical assignments asserted)",
        ),
    )

    point = {
        "schema": 1,
        "quick": QUICK,
        "workload": {
            "source": "bench_table1_timing",
            "documents": table1_stats.size,
            "k": K,
            "seed": SEED,
        },
        "engines": {
            engine: {
                "fit_seconds": fit_seconds[engine],
                "pass_seconds": pass_seconds[engine],
                "fit_speedup_vs_dense":
                    fit_seconds["dense"] / fit_seconds[engine],
                "pass_speedup_vs_dense":
                    pass_seconds["dense"] / pass_seconds[engine],
                "iterations": results[engine].iterations,
                "clustering_index": results[engine].clustering_index,
            }
            for engine in engines
        },
        "parity": {
            "assignments_identical": True,
            "g_rel_tol": 1e-9,
        },
    }
    BENCH_ENGINES_PATH.parent.mkdir(exist_ok=True)
    BENCH_ENGINES_PATH.write_text(
        json.dumps(point, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
