"""Ablation — representative-based avg_sim vs brute force (Section 4.4).

The paper's Eq. 26 claim: computing the would-be ``avg_sim`` when a
document is appended needs one representative dot product instead of
|C| pairwise similarities. This bench measures the speedup of the
closed form against the literal Eq. 18 double sum on a real cluster.
"""

from __future__ import annotations

import itertools
import math

import pytest

from repro import CorpusStatistics, ForgettingModel
from repro.experiments import render_table
from tests.oracles import Cluster
from tests.oracles.vectors import weighted_vector


@pytest.fixture(scope="module")
def cluster_and_vectors(repository):
    """A 200-document cluster of the corpus's largest topic."""
    docs = [
        d for d in repository.documents() if d.topic_id == "20015"
    ][:200]
    model = ForgettingModel(half_life=7.0)
    stats = CorpusStatistics.from_scratch(model, docs, at_time=60.0)
    vectors = {doc.doc_id: weighted_vector(stats, doc) for doc in docs}
    cluster = Cluster(0)
    candidates = []
    for i, doc in enumerate(docs):
        if i % 10 == 0:
            candidates.append(vectors[doc.doc_id])
        else:
            cluster.add(doc.doc_id, vectors[doc.doc_id])
    return cluster, vectors, candidates


def _brute_force_if_added(cluster, vectors, candidate):
    members = [vectors[doc_id] for doc_id in cluster.member_ids()]
    members.append(candidate)
    n = len(members)
    total = 0.0
    for v, w in itertools.combinations(members, 2):
        total += v.dot(w)
    return 2.0 * total / (n * (n - 1))


def bench_representative_avg_sim(benchmark, cluster_and_vectors):
    """Eq. 26: one dot product per what-if query."""
    cluster, _, candidates = cluster_and_vectors
    benchmark(
        lambda: [cluster.avg_sim_if_added(c) for c in candidates]
    )


def bench_brute_force_avg_sim(benchmark, cluster_and_vectors, reporter):
    """Literal Eq. 18: O(|C|^2) pairwise similarities per query."""
    cluster, vectors, candidates = cluster_and_vectors

    results_fast = [cluster.avg_sim_if_added(c) for c in candidates]
    results_slow = benchmark.pedantic(
        lambda: [
            _brute_force_if_added(cluster, vectors, c) for c in candidates
        ],
        rounds=2,
        iterations=1,
    )
    for fast, slow in zip(results_fast, results_slow):
        assert math.isclose(fast, slow, rel_tol=1e-9, abs_tol=1e-12)
    reporter.add(
        "ablation_representatives",
        render_table(
            ["method", "what it computes"],
            [
                ["representatives (Eq. 26)",
                 "cr_sim(Cp,Cp), ss, |Cp| cached; one sparse dot per query"],
                ["brute force (Eq. 18)",
                 "all O(|C|^2) pairwise sims per query"],
            ],
            title="Ablation — avg_sim computation (see benchmark timings; "
                  "results identical to 1e-9)",
        ),
    )
