"""Ingestion fast path — dict vs columnar statistics, dict vs CSR vectors.

Replays the Experiment 1 stream (the same Table 1 workload as
``bench_engines.py``) through the statistics layer in 7-day batches and
times the two halves of ingestion the columnar PR accelerates:

* ``statistics`` — per-batch ``observe`` + decay + ``expire`` under the
  tests' ``dict`` oracle backend (``tests/oracles/dict_backend.py``,
  registered by this directory's conftest) vs the ``columnar`` array
  backend, and
* ``combined`` — the same replay with per-batch vectorisation included
  (``weighted_vectors`` dict construction vs the ``weighted_arrays``
  CSR batch), i.e. everything a pipeline does per batch except the
  K-means loop itself.

The module writes ``benchmarks/reports/BENCH_ingest.json`` with the
measured speedups and asserts — timing-free, so CI can run it on noisy
machines — that the production pair (``columnar`` statistics, ``matrix``
engine) clusters *identically* to the oracle pair (``dict``, ``dense``)
at a fixed seed. ``REPRO_BENCH_QUICK=1`` shrinks the
stream and the rounds for smoke runs.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import pytest

from repro import CorpusStatistics, ForgettingModel, NoveltyKMeans
from repro.corpus.streams import iter_batches
from repro.corpus.synthetic import TDT2Generator
from repro.experiments import ExperimentOneConfig, render_table
from repro.vectors.tfidf import NoveltyTfidfWeighter

BENCH_INGEST_PATH = Path(__file__).parent / "reports" / "BENCH_ingest.json"
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
BACKENDS = ("dict", "columnar")
#: (statistics backend, engine): the oracle pair, then the production one
PAIRS = (("dict", "dense"), ("columnar", "matrix"))
BATCH_DAYS = 7.0
K = 32
SEED = 3
ROUNDS = 1 if QUICK else 5


@pytest.fixture(scope="module")
def workload():
    config = ExperimentOneConfig(
        seed=1998, unlabeled_per_day=20.0 if QUICK else 215.0
    )
    repo = TDT2Generator(config.corpus_config()).generate()
    docs = [d for d in repo.documents() if d.timestamp < config.days]
    docs.sort(key=lambda d: (d.timestamp, d.doc_id))
    model = ForgettingModel(config.half_life, config.life_span)
    # chunk the stream once, outside every timed region — the replay
    # should measure the statistics layer, not the batching iterator
    batches = list(iter_batches(docs, BATCH_DAYS))
    return docs, batches, model


def _replay(batches, model, backend, vectorise=None):
    """One full ingestion replay; returns (stats, elapsed_seconds)."""
    stats = CorpusStatistics(model, backend=backend)
    start = time.perf_counter()
    for at_time, batch in batches:
        stats.observe(batch, at_time=at_time)
        stats.expire()
        if vectorise is not None:
            active = stats.documents()
            weighter = NoveltyTfidfWeighter(stats)
            if vectorise == "arrays":
                weighter.weighted_arrays(active)
            else:
                weighter.weighted_vectors(active)
    return stats, time.perf_counter() - start


def _best_of(fn, rounds):
    best = math.inf
    value = None
    for _ in range(rounds):
        value, elapsed = fn()
        best = min(best, elapsed)
    return value, best


def bench_ingest_fast_path(workload, reporter):
    docs, batches, model = workload

    # -- statistics phase: observe + decay + expire ------------------
    stats_seconds = {}
    final_stats = {}
    for backend in BACKENDS:
        final_stats[backend], stats_seconds[backend] = _best_of(
            lambda backend=backend: _replay(batches, model, backend),
            ROUNDS,
        )
    assert final_stats["dict"].doc_ids() == final_stats["columnar"].doc_ids()
    assert math.isclose(
        final_stats["dict"].tdw, final_stats["columnar"].tdw,
        rel_tol=1e-9,
    )

    # -- combined ingestion: statistics + per-batch vectorisation ----
    combined_seconds = {
        "dict": _best_of(
            lambda: _replay(batches, model, "dict", vectorise="vectors"),
            ROUNDS,
        )[1],
        "columnar": _best_of(
            lambda: _replay(
                batches, model, "columnar", vectorise="arrays"
            ),
            ROUNDS,
        )[1],
    }

    # -- vectorisation alone, on the final corpus --------------------
    active = final_stats["dict"].documents()
    _, vectors_seconds = _best_of(
        lambda: (None, _timed(
            lambda: NoveltyTfidfWeighter(
                final_stats["dict"]).weighted_vectors(active)
        )), ROUNDS,
    )
    _, arrays_seconds = _best_of(
        lambda: (None, _timed(
            lambda: NoveltyTfidfWeighter(
                final_stats["columnar"]).weighted_arrays(active)
        )), ROUNDS,
    )

    # -- parity: production pair vs oracle pair, identical clusterings
    reference = None
    for backend, engine in PAIRS:
        kmeans = NoveltyKMeans(k=K, seed=SEED, engine=engine)
        result = kmeans.fit(
            final_stats[backend].documents(), final_stats[backend]
        )
        if reference is None:
            reference = result
        label = f"{backend}/{engine}"
        assert result.assignments() == reference.assignments(), label
        assert math.isclose(
            result.clustering_index, reference.clustering_index,
            rel_tol=1e-9,
        ), label

    stats_speedup = stats_seconds["dict"] / stats_seconds["columnar"]
    combined_speedup = combined_seconds["dict"] / combined_seconds["columnar"]
    vector_speedup = vectors_seconds / arrays_seconds

    rows = [
        ["statistics replay",
         f"{stats_seconds['dict']:.3f}",
         f"{stats_seconds['columnar']:.3f}",
         f"{stats_speedup:.2f}x"],
        ["vectorisation (final corpus)",
         f"{vectors_seconds:.3f}",
         f"{arrays_seconds:.3f}",
         f"{vector_speedup:.2f}x"],
        ["combined ingestion",
         f"{combined_seconds['dict']:.3f}",
         f"{combined_seconds['columnar']:.3f}",
         f"{combined_speedup:.2f}x"],
    ]
    reporter.add(
        "ingest_fast_path",
        render_table(
            ["phase", "dict s", "columnar s", "speedup"],
            rows,
            title=f"Ingestion on the Table 1 workload ({len(docs)} docs, "
                  f"{BATCH_DAYS:.0f}-day batches, K={K}, seed={SEED}; "
                  f"identical clusterings asserted for the "
                  f"production and oracle pairs)",
        ),
    )

    point = {
        "schema": 1,
        "quick": QUICK,
        "workload": {
            "source": "experiment1",
            "documents": len(docs),
            "active_documents": final_stats["dict"].size,
            "batch_days": BATCH_DAYS,
            "k": K,
            "seed": SEED,
        },
        "phases": {
            "statistics": {
                "dict_seconds": stats_seconds["dict"],
                "columnar_seconds": stats_seconds["columnar"],
                "speedup": stats_speedup,
            },
            "vectorisation": {
                "dict_path_seconds": vectors_seconds,
                "array_path_seconds": arrays_seconds,
                "speedup": vector_speedup,
            },
        },
        "combined": {
            "dict_seconds": combined_seconds["dict"],
            "columnar_seconds": combined_seconds["columnar"],
            "speedup": combined_speedup,
        },
        "parity": {
            "engines": [engine for _, engine in PAIRS],
            "backends": [backend for backend, _ in PAIRS],
            "assignments_identical": True,
            "g_rel_tol": 1e-9,
            "clustering_index": reference.clustering_index,
        },
    }
    BENCH_INGEST_PATH.parent.mkdir(exist_ok=True)
    BENCH_INGEST_PATH.write_text(
        json.dumps(point, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
