"""Engine contract regressions for the assignment sweep.

Pins the three engine-contract guarantees this layer makes to the
clustering loop:

* the matrix engine's Gram-block cache is LRU-bounded (one full
  sweep's worth of blocks), so long-lived engines probing shifting
  document subsets cannot grow it without bound;
* exactly the *empty-vector* documents decide ``(-1, NO_GAIN)`` — a
  non-empty vector whose self-similarity underflows to 0.0 is still
  scored, identically by the matrix engine and the dense oracle;
* a novelty decision (``gain <= 0``) removes the document from its
  cluster without re-adding it, and nothing else: no document is ever
  silently dropped from, or duplicated in, the membership accounting.
"""

import math

import numpy as np
import pytest

from repro import CorpusStatistics, ForgettingModel, NoveltyKMeans
from repro.core.engines import NO_GAIN, MatrixEngine
from tests.conftest import make_document
from tests.oracles import DenseEngine
from tests.oracles.sparse import SparseVector
from tests.oracles.vectors import as_arrays

ENGINES = (DenseEngine, MatrixEngine)
NAMES = [engine.name for engine in ENGINES]


def row_index(vectors):
    """``{doc_id: row}`` of the batch ``as_arrays(vectors)`` builds."""
    return {doc_id: row for row, doc_id in enumerate(vectors)}


def sweep(engine, vectors, doc_ids):
    """``engine.best_gains`` over ``doc_ids``, as (cluster, gain) pairs."""
    index = row_index(vectors)
    best, gain = engine.best_gains(
        np.array([index[d] for d in doc_ids], dtype=np.int64)
    )
    return list(zip(best.tolist(), gain.tolist()))


class TestBlockCacheBound:
    def test_cache_stays_bounded_under_shifting_subsets(self):
        n_docs, block_size = 40, 8
        vectors = {
            f"d{i:03d}": SparseVector({i % 7: 1.0, 7 + i % 5: 0.5})
            for i in range(n_docs)
        }
        engine = MatrixEngine(4, as_arrays(vectors), "g",
                              block_size=block_size)
        limit = math.ceil(n_docs / block_size)
        assert engine._block_cache_limit == limit
        doc_ids = list(vectors)
        # 25 distinct window starts → 25 distinct block keys; an
        # unbounded cache would hold one dense Gram block per key
        for start in range(25):
            sweep(engine, vectors, doc_ids[start:start + 16])
            assert len(engine._block_cache) <= limit
        # the steady-state full sweep still fits and still works
        decisions = sweep(engine, vectors, doc_ids)
        assert len(decisions) == n_docs
        assert len(engine._block_cache) <= limit

    def test_full_sweep_blocks_all_cached(self):
        vectors = {
            f"d{i:03d}": SparseVector({i % 7: 1.0})
            for i in range(32)
        }
        engine = MatrixEngine(4, as_arrays(vectors), "g", block_size=8)
        sweep(engine, vectors, list(vectors))
        # the cache exists to serve repeated full sweeps: all four
        # blocks of one pass must be resident at once
        assert len(engine._block_cache) == 4


class TestEmptyDocContract:
    def test_empty_and_underflow_docs_agree_across_engines(self):
        vectors = {
            "topical": SparseVector({0: 1.0, 1: 0.5}),
            "other": SparseVector({1: 2.0, 3: 1.0}),
            "empty": SparseVector({}),
            # non-empty, but w⃗·w⃗ underflows to exactly 0.0 — must be
            # scored (it overlaps "topical"), not treated as empty
            "tiny": SparseVector({0: 1e-200, 2: 1e-200}),
        }
        order = ["empty", "tiny"]
        row = row_index(vectors)
        decisions = {}
        for engine_class in ENGINES:
            engine = engine_class(2, as_arrays(vectors), "g")
            engine.add(0, row["topical"])
            engine.add(1, row["other"])
            decisions[engine_class] = sweep(engine, vectors, order)
        reference = decisions[DenseEngine]
        assert reference[0] == (-1, NO_GAIN)
        assert reference[1][0] == 0 and reference[1][1] > 0.0
        for engine_class in ENGINES:
            assert [d[0] for d in decisions[engine_class]] == [
                d[0] for d in reference
            ], engine_class.name

    def test_underflow_doc_survives_speculation(self):
        # enough documents that the matrix engine's vectorised
        # fast path (not just the sequential loop) sees the
        # underflowed vector
        vectors = {
            f"d{i:02d}": SparseVector({i % 3: 1.0}) for i in range(30)
        }
        vectors["tiny"] = SparseVector({0: 1e-200})
        vectors["empty"] = SparseVector({})
        order = list(vectors)
        row = row_index(vectors)
        decisions = {}
        for engine_class in ENGINES:
            engine = engine_class(3, as_arrays(vectors), "g")
            for i in range(30):
                engine.add(i % 3, row[f"d{i:02d}"])
            # two identical passes: the second is net-stationary, which
            # is what the speculation path accelerates
            sweep(engine, vectors, order)
            decisions[engine_class] = sweep(engine, vectors, order)
        reference = decisions[DenseEngine]
        assert reference[order.index("empty")] == (-1, NO_GAIN)
        assert reference[order.index("tiny")][0] != -1
        for engine_class in ENGINES:
            assert [d[0] for d in decisions[engine_class]] == [
                d[0] for d in reference
            ], engine_class.name


class TestMembershipConservation:
    @pytest.mark.parametrize("engine_class", ENGINES, ids=NAMES)
    def test_novelty_decision_drops_doc_from_members_only(
        self, engine_class
    ):
        # "loner" shares no vocabulary with any cluster: every gain is
        # 0.0 (novel document), so the sweep must leave it unassigned —
        # removed from membership, in no cluster's member list
        vectors = {
            "a": SparseVector({0: 1.0}),
            "b": SparseVector({0: 0.5, 1: 1.0}),
            "c": SparseVector({1: 2.0}),
            "loner": SparseVector({9: 1.0}),
            "empty": SparseVector({}),
        }
        row = row_index(vectors)
        engine = engine_class(2, as_arrays(vectors), "g")
        engine.add(0, row["a"])
        engine.add(0, row["b"])
        engine.add(1, row["c"])
        engine.add(1, row["loner"])  # warm-started into the wrong cluster
        order = ["a", "b", "c", "loner", "empty"]
        decisions = sweep(engine, vectors, order)
        doc_ids = list(vectors)
        members = [[doc_ids[r] for r in rows.tolist()]
                   for rows in engine.members()]
        flat = [doc for cluster in members for doc in cluster]
        assert len(flat) == len(set(flat)), "document in two clusters"
        for doc_id, (cluster_id, gain) in zip(order, decisions):
            if gain > 0.0:
                assert doc_id in members[cluster_id]
                assert engine.cluster_of(row[doc_id]) == cluster_id
            else:
                assert all(doc_id not in c for c in members), (
                    f"{doc_id} kept a stale membership after a "
                    f"novelty decision"
                )
                assert engine.cluster_of(row[doc_id]) is None
        assert set(flat) | {"loner", "empty"} == set(order)

    @pytest.mark.parametrize("engine_class", ENGINES, ids=NAMES)
    def test_fit_partitions_docs_with_novelty_outliers(self, engine_class):
        docs = [
            make_document("s1", 0.0, {0: 3, 1: 1}),
            make_document("s2", 0.5, {0: 2, 1: 2}),
            make_document("f1", 1.0, {5: 3, 6: 1}),
            make_document("f2", 1.5, {5: 1, 6: 2}),
            make_document("loner", 2.0, {9: 4}),
            make_document("blank", 2.0, {}),
        ]
        model = ForgettingModel(half_life=7.0, life_span=14.0)
        stats = CorpusStatistics.from_scratch(model, docs, at_time=2.0)
        result = NoveltyKMeans(k=2, seed=0, engine=engine_class).fit(
            docs, stats
        )
        clustered = [d for members in result.clusters for d in members]
        assert len(clustered) == len(set(clustered))
        assert set(clustered) | set(result.outliers) == {
            d.doc_id for d in docs
        }
        assert "blank" in result.outliers


class TestFreeze:
    @pytest.mark.parametrize("engine_class", ENGINES, ids=NAMES)
    def test_view_is_a_read_only_copy(self, engine_class):
        vectors = {
            "a": SparseVector({3: 1.0, 8: 0.5}),
            "b": SparseVector({3: 0.5, 11: 1.0}),
            "c": SparseVector({20: 2.0}),
        }
        row = row_index(vectors)
        engine = engine_class(2, as_arrays(vectors), "g")
        engine.add(0, row["a"])
        engine.add(0, row["b"])
        engine.add(1, row["c"])
        engine.refresh()
        view = engine.freeze()
        assert view.term_ids.tolist() == [3, 8, 11, 20]
        assert view.representatives.shape == (2, 4)
        assert view.representatives[0].tolist() == [1.5, 0.5, 1.0, 0.0]
        assert view.sizes.tolist() == [2, 1]
        assert view.clustering_index == engine.clustering_index()
        assert view.contributions.tolist() == engine.contributions()
        for array in (
            view.term_ids, view.representatives, view.sizes, view.crpp,
            view.ss, view.gain_a, view.gain_b, view.contributions,
        ):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[..., 0] = 1
        # later engine mutations do not reach the view
        engine.remove(0, row["b"])
        assert view.sizes.tolist() == [2, 1]
        assert view.representatives[0].tolist() == [1.5, 0.5, 1.0, 0.0]

    @pytest.mark.parametrize("engine_class", ENGINES, ids=NAMES)
    def test_empty_term_space_is_not_padded(self, engine_class):
        engine = engine_class(3, as_arrays({}), "g")
        view = engine.freeze()
        assert view.term_ids.size == 0
        assert view.representatives.shape == (3, 0)
        assert view.k == 3
        assert view.clustering_index == 0.0
