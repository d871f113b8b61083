"""The statistics-backend seam and dict/columnar equivalence.

The columnar backend stores the same Eq. 27-29 state as the dict
oracle (``tests/oracles/dict_backend.py``) in flat numpy arrays. These
tests pin the ``backend=`` seam and — the load-bearing property — that
the two layouts stay numerically interchangeable under arbitrary
interleavings of observe/advance/expire/remove.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CorpusStatistics, ForgettingModel, IncrementalClusterer
from repro.exceptions import ConfigurationError
from repro.forgetting.backends import ColumnarStatisticsBackend
from tests.conftest import make_document
from tests.oracles import DictStatisticsBackend

BACKENDS = (DictStatisticsBackend, ColumnarStatisticsBackend)


@pytest.fixture
def model():
    return ForgettingModel(half_life=7.0, life_span=14.0)


class TestRegistry:
    """Backend selection: ``backend=`` takes the class itself, and
    anything else fails at construction."""

    def test_unknown_name_lists_alternatives(self, model):
        # a stale caller still passing a former registry name, or an
        # instance, gets a ConfigurationError naming the class
        for stale in ("no-such-backend", "columnar", "dict",
                      ColumnarStatisticsBackend()):
            with pytest.raises(ConfigurationError,
                               match="ColumnarStatisticsBackend"):
                CorpusStatistics(model, backend=stale)
        with pytest.raises(ConfigurationError,
                           match="ColumnarStatisticsBackend"):
            CorpusStatistics.from_scratch(model, [], at_time=0.0,
                                          backend="columnar")
        with pytest.raises(ConfigurationError,
                           match="ColumnarStatisticsBackend"):
            IncrementalClusterer(model, k=4, statistics_backend="columnar")


# -- property: dict and columnar agree under any interleaving -----------

#: One step of the interleaving. ``observe`` carries a batch of 1-3
#: small documents, ``advance`` a forward time delta, ``remove`` an
#: index into the currently active documents (modulo size).
_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=7),  # term seed
                    st.integers(min_value=1, max_value=4),  # count
                ),
                min_size=1,
                max_size=3,
            ),
        ),
        st.tuples(
            st.just("advance"),
            st.floats(min_value=0.1, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
        ),
        st.tuples(st.just("expire"), st.none()),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=99)),
    ),
    min_size=1,
    max_size=12,
)


def _run_program(steps, backend, life_span):
    model = ForgettingModel(half_life=7.0, life_span=life_span)
    stats = CorpusStatistics(model, backend=backend)
    clock = 0.0
    next_id = 0
    for action, payload in steps:
        if action == "observe":
            batch = []
            for term_seed, count in payload:
                batch.append(
                    make_document(
                        f"d{next_id}", clock,
                        {term_seed: count, (term_seed + 3) % 11: 1},
                    )
                )
                next_id += 1
            stats.observe(batch, at_time=clock)
        elif action == "advance":
            clock += payload
            stats.advance_to(clock)
        elif action == "expire":
            stats.expire()
        elif action == "remove":
            ids = stats.doc_ids()
            if ids:
                stats.remove(ids[payload % len(ids)])
    return stats


def _assert_parity(a, b):
    assert a.size == b.size
    assert a.doc_ids() == b.doc_ids()
    assert math.isclose(a.tdw, b.tdw, rel_tol=1e-9, abs_tol=1e-12)
    for doc_id in a.doc_ids():
        assert math.isclose(
            a.dw(doc_id), b.dw(doc_id), rel_tol=1e-9, abs_tol=1e-12
        )
    # float residues of removal can differ by ulps between layouts
    # (dict deletes masses <= 0, columnar zeroes the column), so term
    # id sets are compared only where probability mass is material
    terms_a = {t for t in a.term_ids() if a.pr_term(t) > 1e-12}
    terms_b = {t for t in b.term_ids() if b.pr_term(t) > 1e-12}
    assert terms_a == terms_b
    for term_id in set(a.term_ids()) | set(b.term_ids()):
        assert math.isclose(
            a.pr_term(term_id), b.pr_term(term_id),
            rel_tol=1e-9, abs_tol=1e-12,
        )


class TestDictColumnarParity:
    @settings(max_examples=120, deadline=None)
    @given(steps=_STEPS)
    def test_interleaving_parity_with_lifespan(self, steps):
        a = _run_program(steps, DictStatisticsBackend, life_span=14.0)
        b = _run_program(steps, ColumnarStatisticsBackend, life_span=14.0)
        _assert_parity(a, b)

    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS)
    def test_interleaving_parity_without_lifespan(self, steps):
        a = _run_program(steps, DictStatisticsBackend, life_span=None)
        b = _run_program(steps, ColumnarStatisticsBackend, life_span=None)
        _assert_parity(a, b)

    @settings(max_examples=40, deadline=None)
    @given(steps=_STEPS)
    def test_columnar_survives_its_own_validate(self, steps):
        stats = _run_program(steps, ColumnarStatisticsBackend,
                             life_span=14.0)
        stats.validate()

    def test_clone_is_independent(self, model):
        stats = CorpusStatistics(model)
        stats.observe([make_document("d0", 0.0, {0: 2, 1: 1})], 0.0)
        fork = stats.clone()
        assert fork.backend_name == "columnar"
        fork.observe([make_document("d1", 1.0, {2: 3})], 1.0)
        assert stats.size == 1 and fork.size == 2
        stats.validate()
        fork.validate()


class TestExpireFastPath:
    def test_no_lifespan_expire_skips_counters(self):
        """Satellite: expire() with no life span must not emit events."""
        from repro.obs import InMemoryRecorder

        model = ForgettingModel(half_life=7.0, life_span=None)
        for backend in BACKENDS:
            recorder = InMemoryRecorder()
            stats = CorpusStatistics(model, recorder=recorder,
                                     backend=backend)
            stats.observe([make_document("d0", 0.0, {0: 1})], 0.0)
            stats.advance_to(50.0)
            assert stats.expire() == []
            assert "statistics.docs_expired" not in recorder.counters()

    def test_no_lifespan_underflow_still_expires(self):
        """The fast path must stand aside once a weight hits 0.0."""
        model = ForgettingModel(half_life=7.0, life_span=None)
        for backend in BACKENDS:
            stats = CorpusStatistics(model, backend=backend)
            stats.observe([make_document("d0", 0.0, {0: 1})], 0.0)
            # 2^-(t/7) underflows past the smallest subnormal
            stats.advance_to(7.0 * 1100.0)
            expired = stats.expire()
            assert [d.doc_id for d in expired] == ["d0"]
            assert stats.size == 0


class TestExpiryAtTheLifeSpan:
    def test_age_exactly_gamma_decides_alike_on_both_backends(self, model):
        """A document whose age is exactly γ has ``dw == ε`` (Eq. 1);
        the eager (dict) and lazy (columnar) decays round it to
        opposite sides of ε on this daily stream, so expiry must judge
        the exact weight, as from_scratch does, on both backends."""
        t0 = 30.0080904691673
        kept = {}
        for backend in BACKENDS:
            stats = CorpusStatistics(model, backend=backend)
            stats.observe([make_document(f"w{i}", 16.0 + i, {1: 1})
                           for i in range(14)], at_time=30.0)
            at = t0 + 1.0
            stats.observe([make_document("a", t0, {2: 1})], at_time=at)
            for day in range(13):
                at += 1.0
                stats.observe([make_document(f"f{day}", at - 0.5, {3: 1})],
                              at_time=at)
                stats.expire()
            kept[backend.name] = "a" in stats
        assert model.weight(t0, at) == model.epsilon
        assert kept == {"dict": True, "columnar": True}


class TestRemoveClampCounter:
    def test_clamp_emits_counter(self):
        """Satellite: tdw clamped to 0.0 on remove must be observable."""
        from repro.obs import InMemoryRecorder

        model = ForgettingModel(half_life=7.0, life_span=None)
        for backend in BACKENDS:
            recorder = InMemoryRecorder()
            stats = CorpusStatistics(model, recorder=recorder,
                                     backend=backend)
            stats.observe([make_document("d0", 0.0, {0: 1})], 0.0)
            # force a negative residue: the backend's running tdw is
            # nudged below the stored weight before removal
            stats._backend.tdw = stats._backend.tdw * (1.0 - 1e-12) - 1e-9
            stats.remove("d0")
            assert recorder.counters().get("statistics.tdw_clamped") == 1.0
            assert stats.tdw == 0.0

    def test_clean_remove_emits_no_clamp(self):
        from repro.obs import InMemoryRecorder

        model = ForgettingModel(half_life=7.0, life_span=None)
        for backend in BACKENDS:
            recorder = InMemoryRecorder()
            stats = CorpusStatistics(model, recorder=recorder,
                                     backend=backend)
            stats.observe([make_document("d0", 0.0, {0: 1}),
                           make_document("d1", 0.0, {1: 1})], 0.0)
            stats.remove("d0")
            assert "statistics.tdw_clamped" not in recorder.counters()


class TestTermIndexFollowsTheTerms:
    """A caller-built ``Document`` may carry any int32 term id; the
    columnar term index, and the fit that follows, must cost memory
    proportional to the terms, not to the largest id."""

    LARGEST = 2**31 - 1

    def test_largest_int32_id_through_process_batch(self, model):
        import tracemalloc

        docs = [
            make_document("a", 0.5, {1: 2, 3: 1}),
            make_document("b", 0.6, {1: 1, self.LARGEST: 3}),
            make_document("c", 0.7, {3: 2, 4: 1}),
        ]
        clusterer = IncrementalClusterer(model, k=2, seed=1)
        tracemalloc.start()
        try:
            result = clusterer.process_batch(docs, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a table sized by the id would ask for gigabytes
        assert peak < 2**20
        assert sorted(d for c in result.clusters for d in c) == ["a", "b", "c"]
        statistics = clusterer.statistics
        assert statistics.pr_term(self.LARGEST) > 0.0
        statistics.validate()

    @pytest.mark.parametrize("ids", [
        (0, 1, 2, 3),                         # stays a direct table
        (5, 2**31 - 1, 7, 40_000_000),        # sorted from the start
    ])
    def test_sparse_ids_match_the_dict_oracle(self, model, ids):
        # dense ids first, then a sparse one turns the index sorted
        # part-way; lookups, removal and expiry must not notice
        batches = [
            [make_document("d0", 0.0, {0: 2, 1: 1}),
             make_document("d1", 0.0, {ids[0]: 1, ids[1]: 2})],
            [make_document("d2", 3.0, {ids[2]: 4, ids[3]: 1, 1: 1})],
            [make_document("d3", 20.0, {ids[3]: 2, 9: 1})],
        ]
        stores = [CorpusStatistics(model, backend=backend)
                  for backend in BACKENDS]
        for at_time, batch in zip((0.0, 3.0, 20.0), batches):
            for stats in stores:
                stats.observe(batch, at_time)
        stores[0].remove("d2")
        stores[1].remove("d2")
        dict_store, columnar = stores
        for term_id in set(ids) | {0, 1, 9, 123}:
            assert columnar.pr_term(term_id) == pytest.approx(
                dict_store.pr_term(term_id), rel=1e-12, abs=0.0
            )
        assert sorted(columnar.term_ids()) == sorted(dict_store.term_ids())
        columnar.validate()

    def test_index_turns_sorted_only_for_sparse_ids(self):
        from repro.forgetting.backends.columnar import TermIndex

        index = TermIndex()
        index.add(np.array([3, 0, 3, 7]), 0)
        assert index.dense
        assert index.lookup(np.array([0, 3, 7, 5, 10**9])).tolist() == [
            0, 1, 2, -1, -1]
        index.add(np.array([2**31 - 1, 5]), 3)
        assert not index.dense
        assert index.lookup(
            np.array([0, 3, 7, 5, 2**31 - 1, 6])).tolist() == [
            0, 1, 2, 3, 4, -1]
        copy = index.copy()
        copy.add(np.array([6]), 5)
        assert index.lookup(np.array([6])).tolist() == [-1]
        assert copy.lookup(np.array([6])).tolist() == [5]
