"""Dict-based outlier rescue and split repair (the pre-array versions).

These rebuild scratch clusters with :class:`tests.oracles.cluster.Cluster`
and ``SparseVector`` dot products, one row at a time, exactly as
``NoveltyKMeans`` did before it moved both repairs onto the batch's CSR
rows. ``tests/core/test_repair_parity.py`` holds the array versions to
them.
"""

from typing import List, Mapping, Optional, Sequence, Tuple

from .cluster import Cluster
from .sparse import SparseVector

Vectors = Mapping[str, SparseVector]


def propose_split(members: List[str], vectors: Vectors) -> List[str]:
    """Members to move out: the half closer to the 'odd one out'.

    Seed A is the member least similar to the cluster representative;
    seed B the member least similar to A. Each member goes with the
    seed it is more similar to; the group holding seed A is returned.
    """
    representative = SparseVector()
    for doc_id in members:
        representative.add_scaled(vectors[doc_id], 1.0)
    seed_a = min(
        members,
        key=lambda m: representative.dot(vectors[m])
        - vectors[m].dot(vectors[m]),
    )
    seed_b = min(members, key=lambda m: vectors[seed_a].dot(vectors[m]))
    if seed_a == seed_b:
        return []
    moved: List[str] = []
    for doc_id in members:
        sim_a = vectors[seed_a].dot(vectors[doc_id])
        sim_b = vectors[seed_b].dot(vectors[doc_id])
        if doc_id == seed_a or sim_a > sim_b:
            moved.append(doc_id)
    return moved


def near_tie(x: float, y: float, scale: float, tie: float) -> bool:
    """Whether ``x`` and ``y`` differ by float noise of ``scale``. Two
    exact zeros are no tie: a dot product of vectors without a shared
    term is exactly zero in every summation order."""
    return abs(x - y) <= tie * scale and not x == y == 0.0


def propose_split_ambiguous(
    members: List[str], vectors: Vectors, scale: float, tie: float
) -> bool:
    """Whether :func:`propose_split` makes a call on ``members`` that a
    last-ulp difference may legitimately flip: a runner-up seed, or a
    member's similarities to the two seeds, within float noise."""
    representative = SparseVector()
    for doc_id in members:
        representative.add_scaled(vectors[doc_id], 1.0)
    to_rest = [
        representative.dot(vectors[m]) - vectors[m].dot(vectors[m])
        for m in members
    ]
    a = min(range(len(members)), key=to_rest.__getitem__)
    to_a = [vectors[members[a]].dot(vectors[m]) for m in members]
    b = min(range(len(members)), key=to_a.__getitem__)
    to_b = [vectors[members[b]].dot(vectors[m]) for m in members]
    return (
        any(near_tie(to_rest[a], x, scale, tie)
            for i, x in enumerate(to_rest) if i != a)
        or any(near_tie(to_a[b], x, scale, tie)
               for i, x in enumerate(to_a) if i != b)
        or any(near_tie(to_a[i], to_b[i], scale, tie)
               for i in range(len(members)) if i not in (a, b))
    )


def scratch_contribution(member_ids: List[str], vectors: Vectors) -> float:
    """``|C|·avg_sim`` of a hypothetical cluster over ``member_ids``."""
    scratch = Cluster(-1)
    for doc_id in member_ids:
        scratch.add(doc_id, vectors[doc_id])
    return scratch.index_contribution()


def split_deltas(
    members: Sequence[List[str]],
    vectors: Vectors,
    contributions: Sequence[float],
) -> List[Optional[Tuple[float, List[str]]]]:
    """Per cluster, ``(ΔG, moved)`` of its proposed split (None when
    the cluster has fewer than two members or no proper split)."""
    out: List[Optional[Tuple[float, List[str]]]] = []
    for cid, ids in enumerate(members):
        if len(ids) < 2:
            out.append(None)
            continue
        moved = propose_split(list(ids), vectors)
        if not moved or len(moved) == len(ids):
            out.append(None)
            continue
        moved_set = set(moved)
        keep = [m for m in ids if m not in moved_set]
        delta = (
            scratch_contribution(keep, vectors)
            + scratch_contribution(moved, vectors)
            - contributions[cid]
        )
        out.append((delta, moved))
    return out


def best_split(
    members: Sequence[List[str]],
    vectors: Vectors,
    contributions: Sequence[float],
) -> Optional[Tuple[float, int, List[str]]]:
    """``(ΔG, cluster, moved)`` of the best positive-ΔG split, or None."""
    best: Optional[Tuple[float, int, List[str]]] = None
    for cid, proposal in enumerate(
        split_deltas(members, vectors, contributions)
    ):
        if proposal is None:
            continue
        delta, moved = proposal
        if delta > 1e-18 and (best is None or delta > best[0]):
            best = (delta, cid, moved)
    return best


def grow_candidate(
    vectors: Vectors, ranked: List[str]
) -> Tuple[List[str], float, List[float]]:
    """The rescue candidate grown greedily over ``ranked`` outliers, its
    ``|C|·avg_sim`` contribution, and every gain it decided on (a gain
    at float-noise level is a tie with the zero threshold)."""
    candidate = Cluster(-1)
    gains: List[float] = []
    for doc_id in ranked:
        if candidate.is_empty:
            candidate.add(doc_id, vectors[doc_id])
            continue
        gain = candidate.g_gain_if_added(vectors[doc_id])
        gains.append(gain)
        if gain > 0.0:
            candidate.add(doc_id, vectors[doc_id])
    return candidate.member_ids(), candidate.index_contribution(), gains
