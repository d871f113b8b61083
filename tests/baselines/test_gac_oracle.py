"""GAC's kept-scores agglomeration against the rescanning oracle.

``GACClusterer._agglomerate`` scores each pair once per call; the
oracle rescores every pair after every merge. On seeded buckets — with
duplicate documents, so exact score ties occur — both must make the
same merges in the same order and leave bit-identical units.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import GACClusterer
from repro.baselines._vectorize import normalized
from repro.baselines.gac import _Unit
from tests.conftest import build_topic_repository
from tests.oracles.gac import agglomerate


def random_bucket(seed: int):
    """Units over a small vocabulary: some documents repeated, some
    units already merged, in a shuffled order."""
    rng = random.Random(seed)
    vectors = [
        normalized({
            term: rng.uniform(0.1, 3.0)
            for term in rng.sample(range(30), rng.randint(1, 8))
        })
        for _ in range(rng.randint(4, 24))
    ]
    vectors += [dict(vector) for vector in rng.choices(vectors, k=6)]
    units = [_Unit([f"d{i}"], vector, float(i))
             for i, vector in enumerate(vectors)]
    rng.shuffle(units)
    for _ in range(3):
        first, second = units.pop(), units.pop()
        units.insert(rng.randrange(len(units) + 1),
                     first.merged_with(second))
    return units


def recorded(run, bucket, goal, monkeypatch):
    """The merges ``run`` makes, in order, and the units it returns."""
    merges = []
    merged_with = _Unit.merged_with

    def logged(self, other):
        merges.append((tuple(self.doc_ids), tuple(other.doc_ids)))
        return merged_with(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(_Unit, "merged_with", logged)
        units = run(list(bucket), goal)
    return merges, [
        (unit.doc_ids, unit.vector_sum, unit.norm_sq.hex(),
         unit.first_timestamp)
        for unit in units
    ]


def has_exact_tie(bucket):
    scores = [
        GACClusterer._merge_score(bucket[i], bucket[j])
        for i in range(len(bucket)) for j in range(i + 1, len(bucket))
    ]
    return len(set(scores)) < len(scores)


@pytest.mark.parametrize("seed", range(12))
def test_merges_and_units_match_the_oracle(seed, monkeypatch):
    bucket = random_bucket(seed)
    assert has_exact_tie(bucket)
    for goal in (1, 2, len(bucket) // 2, len(bucket) - 1, len(bucket)):
        expected = recorded(agglomerate, bucket, goal, monkeypatch)
        got = recorded(GACClusterer._agglomerate, bucket, goal,
                       monkeypatch)
        assert got == expected, (seed, goal)
        assert len(got[1]) == goal


@pytest.mark.parametrize("bucket_size", [5, 200])
def test_fit_matches_a_fit_through_the_oracle(bucket_size, monkeypatch):
    stream = build_topic_repository(days=4, docs_per_topic_per_day=3,
                                    seed=5)
    documents = stream.documents()
    documents += documents[:12]  # the same documents again: exact ties
    gac = GACClusterer(target_clusters=4, bucket_size=bucket_size,
                       recluster_period=1)
    got = gac.fit(documents)
    monkeypatch.setattr(GACClusterer, "_agglomerate",
                        staticmethod(agglomerate))
    expected = gac.fit(documents)
    assert got.clusters == expected.clusters
    assert got.clustering_index.hex() == expected.clustering_index.hex()
    assert got.iterations == expected.iterations
