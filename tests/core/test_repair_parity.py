"""Property suite: split repair and outlier rescue on CSR rows match the
dict-based oracles (``tests/oracles/repair.py``) over random streams.

``NoveltyKMeans`` proposes splits and grows rescue candidates from the
batch's ``WeightedVectorArrays`` with ``np.bincount`` over member rows;
the oracles rebuild scratch ``Cluster`` objects one ``SparseVector`` at
a time. The two sum the same Eq. 19-24 quantities in different orders,
so values agree to float noise and decisions agree exactly, except
where the oracle itself decided within float noise:

* the chosen cluster may differ only when the two clusters' ΔG tie
  within ``TIE`` (relative to the largest cluster contribution);
* a moved set (or rescue membership) may differ only when the oracle's
  closest seed/side comparison, or its closest gain, is within ``TIE``.

Every ΔG and contribution must agree within 1e-9 relative.
"""

import math

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import CorpusStatistics, ForgettingModel
from repro.core.kmeans import NoveltyKMeans
from repro.forgetting.backends import ColumnarStatisticsBackend
from repro.vectors.tfidf import NoveltyTfidfWeighter
from tests.conftest import make_document
from tests.oracles import repair as oracle
from tests.oracles.dict_backend import DictStatisticsBackend
from tests.oracles.vectors import weighted_vector

TIE = 1e-12
REL = 1e-9

corpora = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.dictionaries(
            st.integers(min_value=0, max_value=29),
            st.integers(min_value=1, max_value=5),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=3,
    max_size=40,
)


BACKENDS = st.sampled_from([DictStatisticsBackend, ColumnarStatisticsBackend])


def batch(corpus, backend=ColumnarStatisticsBackend):
    """(arrays, dict vectors, member lists) of a random partition."""
    docs = [
        make_document(f"d{i}", t, counts)
        for i, (t, counts, _) in enumerate(corpus)
    ]
    stats = CorpusStatistics.from_scratch(
        ForgettingModel(half_life=3.0), docs, at_time=5.0, backend=backend
    )
    weighter = NoveltyTfidfWeighter(stats)
    members = [[] for _ in range(6)]
    for doc, (_, _, cluster) in zip(docs, corpus):
        members[cluster].append(doc.doc_id)
    vectors = {doc.doc_id: weighted_vector(stats, doc) for doc in docs}
    return weighter.weighted_arrays(docs), vectors, members


def rows_of(arrays, ids):
    """Batch rows of the doc ids ``ids``, in order."""
    index = {doc_id: row for row, doc_id in enumerate(arrays.doc_ids)}
    return np.array([index[doc_id] for doc_id in ids], dtype=np.int64)


def ids_of(arrays, rows):
    """Doc ids of the batch rows ``rows``, in order."""
    return [arrays.doc_ids[row] for row in np.asarray(rows).tolist()]


def noise_scale(vectors, contributions=()):
    """The magnitude float noise is measured against: the largest
    self-similarity or cluster contribution in play."""
    return max([vectors[d].dot(vectors[d]) for d in vectors]
               + [abs(c) for c in contributions])


def close(a, b, scale):
    """Within 1e-9 relative, or within float noise of ``scale`` when
    ``a`` and ``b`` are sums that cancel."""
    return math.isclose(a, b, rel_tol=REL, abs_tol=TIE * scale)


@settings(max_examples=300, deadline=None)
@given(corpus=corpora, backend=BACKENDS)
def test_best_split_matches_dict_oracle(corpus, backend):
    arrays, vectors, members = batch(corpus, backend)
    contributions = [oracle.scratch_contribution(ids, vectors)
                     for ids in members]
    scale = noise_scale(vectors, contributions)
    proposals = oracle.split_deltas(members, vectors, contributions)
    expected = oracle.best_split(members, vectors, contributions)
    result = NoveltyKMeans._best_split(
        arrays, [rows_of(arrays, ids) for ids in members], contributions
    )

    if result is None or expected is None:
        # only a ΔG tied with the "no split" threshold may disagree
        other = result if expected is None else expected
        if other is not None:
            event("split: tie with the no-split threshold")
            assert other[0] <= TIE * scale
        return

    delta, cid, moved = result
    moved = ids_of(arrays, moved)
    if cid != expected[1]:
        event("split: tie between two clusters")
        assert proposals[cid] is not None
        assert oracle.near_tie(proposals[cid][0], expected[0], scale, TIE)
    oracle_delta, oracle_moved = proposals[cid]
    if oracle.propose_split_ambiguous(members[cid], vectors, scale, TIE):
        event("split: seed/side tie inside the chosen cluster")
    else:
        assert moved == oracle_moved
        assert close(delta, oracle_delta, scale)
    # whatever was chosen, its ΔG is the oracle's ΔG for that split
    kept = [m for m in members[cid] if m not in set(moved)]
    assert close(delta, oracle.scratch_contribution(kept, vectors)
                 + oracle.scratch_contribution(moved, vectors)
                 - contributions[cid], scale)


@settings(max_examples=300, deadline=None)
@given(corpus=corpora, backend=BACKENDS)
def test_proposals_match_dict_oracle_per_cluster(corpus, backend):
    arrays, vectors, members = batch(corpus, backend)
    scale = noise_scale(vectors)
    for ids in members:
        if len(ids) < 2:
            continue
        rows = rows_of(arrays, ids)
        owner, cols, data = arrays.gather(rows)
        mask = NoveltyKMeans._propose_split(arrays, rows, owner, cols, data)
        moved = [] if mask is None else [
            doc_id for doc_id, out in zip(ids, mask.tolist()) if out
        ]
        if oracle.propose_split_ambiguous(ids, vectors, scale, TIE):
            event("proposal: seed/side tie")
        else:
            assert moved == oracle.propose_split(ids, vectors)


@settings(max_examples=300, deadline=None)
@given(corpus=corpora, backend=BACKENDS)
def test_rescue_candidate_matches_dict_oracle(corpus, backend):
    arrays, vectors, _ = batch(corpus, backend)
    ranked = sorted(vectors, key=lambda d: vectors[d].dot(vectors[d]),
                    reverse=True)
    members, contribution = NoveltyKMeans._grow_candidate(
        arrays, rows_of(arrays, ranked).tolist()
    )
    members = ids_of(arrays, members)
    expected, expected_contribution, gains = oracle.grow_candidate(
        vectors, ranked
    )
    scale = noise_scale(vectors, [expected_contribution])
    if any(oracle.near_tie(gain, 0.0, scale, TIE) for gain in gains):
        event("rescue: gain tied with zero")
    else:
        assert members == expected
        assert close(contribution, expected_contribution, scale)
    assert close(contribution, oracle.scratch_contribution(members, vectors),
                 scale)
