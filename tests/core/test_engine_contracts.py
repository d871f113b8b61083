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
  silently dropped from, or duplicated in, the membership accounting;
* the bulk warm start (``load``) leaves exactly the state of one
  ``add`` per row, in the listed order, followed by ``refresh``, and
  the matrix engine's self-similarities are the dense oracle's per-row
  ``np.dot`` bit for bit;
* every Gram entry the matrix engine's sweep can read (row ``i``
  right of column ``i``), whether paid one mover at a time or for many
  rows at once, is bit-equal to that entry of the block's full Gram
  matrix.
"""

import math

import numpy as np
import pytest
import scipy.sparse

from repro import (
    CorpusStatistics,
    ForgettingModel,
    IncrementalClusterer,
    NoveltyKMeans,
    NoveltyTfidfWeighter,
)
from repro.core.engines import NO_GAIN, MatrixEngine
from repro.corpus.repository import DocumentRepository
from repro.corpus.streams import iter_batches
from repro.corpus.synthetic import SyntheticCorpusConfig, TDT2Generator
from repro.exceptions import ConfigurationError
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


def wide_batch(n_docs=60, seed=5):
    """A weighted batch whose rows hold 1 to 60 terms, so self-similarity
    dots run both the short and the vectorised BLAS paths."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        size = 1 + (i * 7) % 60
        terms = rng.choice(150, size=size, replace=False)
        counts = rng.integers(1, 6, size=size)
        docs.append(make_document(
            f"d{i:03d}", float(rng.uniform(0.0, 5.0)),
            dict(zip(terms.tolist(), counts.tolist())),
        ))
    model = ForgettingModel(half_life=7.0, life_span=30.0)
    stats = CorpusStatistics.from_scratch(model, docs, at_time=5.0)
    return NoveltyTfidfWeighter(stats).weighted_arrays(docs)


class TestBulkLoad:
    def test_load_equals_per_row_adds_bit_for_bit(self):
        vectors = wide_batch()
        rng = np.random.default_rng(11)
        # out of row order, and not every row listed
        rows = rng.permutation(len(vectors))[:45]
        clusters = rng.integers(0, 5, size=rows.size)
        matrix = MatrixEngine(5, vectors, "g")
        matrix.load(rows, clusters)
        dense = DenseEngine(5, vectors, "g")
        for row, cluster_id in zip(rows.tolist(), clusters.tolist()):
            dense.add(cluster_id, row)
        dense.refresh()
        got, want = matrix.freeze(), dense.freeze()
        assert np.array_equal(got.representatives, want.representatives)
        assert np.array_equal(got.ss, want.ss)
        assert np.array_equal(got.crpp, want.crpp)
        assert got.sizes.tolist() == want.sizes.tolist()
        assert np.array_equal(got.gain_a, want.gain_a)
        assert np.array_equal(got.gain_b, want.gain_b)
        assert matrix.clustering_index() == dense.clustering_index()
        assert [m.tolist() for m in matrix.members()] == [
            m.tolist() for m in dense.members()
        ]
        # both engines then decide alike from the loaded state
        order = np.arange(len(vectors), dtype=np.int64)
        got_best, got_gain = matrix.best_gains(order)
        want_best, want_gain = dense.best_gains(order)
        assert got_best.tolist() == want_best.tolist()
        assert np.allclose(got_gain, want_gain, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("engine_class", ENGINES, ids=NAMES)
    def test_out_of_range_cluster_leaves_engine_empty(self, engine_class):
        vectors = wide_batch(n_docs=8)
        engine = engine_class(3, vectors, "g")
        with pytest.raises(ConfigurationError):
            engine.load(np.array([0, 1, 2]), np.array([0, 3, 1]))
        with pytest.raises(ConfigurationError):
            engine.load(np.array([4]), np.array([-1]))
        assert engine.sizes() == [0, 0, 0]
        assert all(m.size == 0 for m in engine.members())
        assert engine.clustering_index() == 0.0
        assert not engine.freeze().representatives.any()
        engine.load(np.array([2, 0]), np.array([1, 1]))
        assert [m.tolist() for m in engine.members()] == [[], [2, 0], []]

    def test_self_similarities_are_per_row_dots(self):
        vectors = wide_batch()
        engine = MatrixEngine(2, vectors, "g")
        for row in range(len(vectors)):
            _, data = vectors.row(row)
            assert engine.self_similarity(row) == float(np.dot(data, data))


class GramCheckedEngine(MatrixEngine):
    """The matrix engine in blocks of 32, checking after every sweep of
    a block that each Gram row it holds equals, right of its own column
    (every entry the sweep can have read), that row of the block's full
    ``Xb @ Xb.T`` built from the block's CSR arrays."""

    name = "gram-checked"
    paid = {"one by one": 0, "in bulk": 0}

    def __init__(self, k, vectors, criterion):
        super().__init__(k, vectors, criterion, block_size=32)

    def _gram_row(self, block, i):
        GramCheckedEngine.paid["one by one"] += 1
        super()._gram_row(block, i)

    def _sweep_block(self, block_rows, *args):
        block = self._block(block_rows)
        had = int(block.have.sum())
        one_by_one = GramCheckedEngine.paid["one by one"]
        super()._sweep_block(block_rows, *args)
        GramCheckedEngine.paid["in bulk"] += (
            int(block.have.sum()) - had
            - (GramCheckedEngine.paid["one by one"] - one_by_one)
        )
        lo, hi = int(block.indptr[0]), int(block.indptr[-1])
        Xb = scipy.sparse.csr_matrix(
            (block.data[lo:hi], block.indices[lo:hi],
             block.indptr - lo),
            shape=(block.rows.size, block.n_terms),
        )
        full = (Xb @ Xb.T).toarray()
        right = np.triu(np.ones(full.shape, dtype=bool), 1)
        held = block.have[:, None] & right
        assert np.array_equal(block.gram[held], full[held])


class TestGramRows:
    def test_every_gram_row_read_equals_the_full_product(self):
        repository = DocumentRepository()
        TDT2Generator(
            SyntheticCorpusConfig(seed=1998, total_documents=1500)
        ).generate(repository=repository)
        documents = [d for d in repository.documents() if d.timestamp < 60]
        clusterer = IncrementalClusterer(
            ForgettingModel(half_life=7.0, life_span=14.0),
            k=8, seed=1998, engine=GramCheckedEngine,
        )
        GramCheckedEngine.paid = {"one by one": 0, "in bulk": 0}
        for at_time, batch in iter_batches(documents, 7.0):
            clusterer.process_batch(batch, at_time)
        # both ways of paying for a Gram row were exercised
        assert GramCheckedEngine.paid["one by one"] > 0
        assert GramCheckedEngine.paid["in bulk"] > 0
