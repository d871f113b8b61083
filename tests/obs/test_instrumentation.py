"""End-to-end instrumentation tests: the pipeline emits structured events.

Every pipeline phase — statistics update, expiry, vectorisation, each
K-means iteration, and the rescue/split/reseed repair moves — emits
structured events through ``repro.obs``; the phase spans are the only
record of how long a phase took.
"""

import pytest

from repro import (
    CorpusStatistics,
    ForgettingModel,
    IncrementalClusterer,
    NonIncrementalClusterer,
    NoveltyKMeans,
)
from repro.core.engines.matrix import DEFAULT_BLOCK_SIZE
from repro.obs import GAUGE, SPAN, InMemoryRecorder, use_recorder
from tests.conftest import build_topic_repository, make_document


@pytest.fixture
def stream():
    repo = build_topic_repository(days=6, docs_per_topic_per_day=2, seed=2)
    batches = [
        [d for d in repo if int(d.timestamp) == day] for day in range(6)
    ]
    return repo, batches


def run_incremental(recorder, batches, **kwargs):
    model = ForgettingModel(half_life=7.0, life_span=14.0)
    clusterer = IncrementalClusterer(
        model, k=4, seed=0, recorder=recorder, **kwargs
    )
    return [
        clusterer.process_batch(batch, at_time=float(day + 1))
        for day, batch in enumerate(batches)
    ]


class TestPipelinePhases:
    def test_every_phase_emits(self, stream):
        _, batches = stream
        recorder = InMemoryRecorder()
        run_incremental(recorder, batches)
        names = recorder.names()
        for required in (
            "pipeline.statistics",     # statistics update phase span
            "pipeline.clustering",     # clustering phase span
            "statistics.observe",      # incremental update span
            "statistics.expire",       # expiry span
            "statistics.docs_observed",
            "statistics.docs_expired",
            "statistics.active_docs",
            "statistics.tdw",
            "statistics.vocabulary_size",
            "kmeans.vectorise",        # vectorisation span
            "kmeans.engine_build",     # engine construction span
            "kmeans.warm_start",       # warm start / random seeding span
            "kmeans.pass",             # one span per K-means iteration
            "kmeans.fit",
            "kmeans.g",
            "kmeans.outliers",
            "pipeline.batches",
            "pipeline.warm_start_reuse",
        ):
            assert required in names, f"missing event {required}"

    def test_one_pass_span_per_iteration(self, stream):
        _, batches = stream
        recorder = InMemoryRecorder()
        results = run_incremental(recorder, batches)
        iterations = sum(r.iterations for r in results)
        assert len(recorder.select(name="kmeans.pass", kind=SPAN)) \
            == iterations
        assert len(recorder.select(name="kmeans.g", kind=GAUGE)) \
            == iterations

    def test_fit_setup_spans_nest_in_each_fit(self, stream):
        _, batches = stream
        recorder = InMemoryRecorder()
        results = run_incremental(recorder, batches)
        setup = ("kmeans.engine_build", "kmeans.warm_start", "kmeans.fit")
        # a span is emitted when it closes: each fit's two setup spans
        # close, in order, before the fit itself does
        closed = [event.name for event in recorder.select(kind=SPAN)
                  if event.name in setup]
        assert closed == list(setup) * len(results)
        # the vectorisation is part of the fit, the fit of the phase
        assert recorder.total("kmeans.vectorise") \
            <= recorder.total("kmeans.fit") \
            <= recorder.total("pipeline.clustering")

    def test_docs_observed_counts_whole_stream(self, stream):
        repo, batches = stream
        recorder = InMemoryRecorder()
        run_incremental(recorder, batches)
        assert recorder.total("statistics.docs_observed") == repo.size

    def test_warm_start_reuse_ratio_in_unit_interval(self, stream):
        _, batches = stream
        recorder = InMemoryRecorder()
        run_incremental(recorder, batches)
        ratios = [e.value for e in
                  recorder.select(name="pipeline.warm_start_reuse")]
        assert ratios  # warm starts happened after batch 1
        assert all(0.0 <= ratio <= 1.0 for ratio in ratios)

    def test_reseed_counter_fires_when_clusters_empty(self):
        """A cold fit with k > natural topics forces reseed events."""
        repo = build_topic_repository(days=2, docs_per_topic_per_day=3,
                                      topics=["sports"], seed=5)
        model = ForgettingModel(half_life=7.0)
        stats = CorpusStatistics.from_scratch(
            model, repo.documents(), at_time=2.0
        )
        recorder = InMemoryRecorder()
        km = NoveltyKMeans(k=4, seed=1, recorder=recorder)
        km.fit(stats.documents(), stats)
        # one topic spread over 4 slots collapses clusters; the
        # instrumentation must have seen the repair moves
        assert recorder.total("kmeans.reseeds") >= 0  # events well-formed
        assert recorder.select(name="kmeans.fit", kind=SPAN)

    def test_non_incremental_pipeline_emits(self, stream):
        _, batches = stream
        recorder = InMemoryRecorder()
        model = ForgettingModel(half_life=7.0, life_span=14.0)
        clusterer = NonIncrementalClusterer(
            model, k=4, seed=0, recorder=recorder
        )
        for day, batch in enumerate(batches):
            clusterer.process_batch(batch, at_time=float(day + 1))
        names = recorder.names()
        assert "statistics.rebuild" in names
        assert "pipeline.statistics" in names
        assert "pipeline.clustering" in names
        assert recorder.total("pipeline.batches") == len(batches)


class TestSweepCounts:
    """``kmeans.pass`` tags say how the matrix engine's sweep spent
    itself; with the NullRecorder nothing is counted."""

    COUNTS = ("window_docs", "sequential_docs", "movers",
              "window_patches", "gram_rows_single", "gram_rows_bulk",
              "gram_entries")

    @staticmethod
    def counting_engine(seen):
        from repro.core.engines import MatrixEngine

        class CountingEngine(MatrixEngine):
            name = "counting"

            def best_gains(self, rows):
                seen.append(self.sweep_counts)
                return super().best_gains(rows)

        return CountingEngine

    def test_counts_add_up_to_the_documents_swept(self):
        repo = build_topic_repository(days=21, docs_per_topic_per_day=4,
                                      seed=3)
        recorder = InMemoryRecorder()
        clusterer = IncrementalClusterer(
            ForgettingModel(half_life=7.0, life_span=14.0),
            k=4, seed=0, recorder=recorder,
        )
        for week in range(3):
            clusterer.process_batch(
                [d for d in repo if int(d.timestamp) // 7 == week],
                at_time=7.0 * (week + 1),
            )
        passes = recorder.select(name="kmeans.pass", kind=SPAN)
        assert passes
        totals = dict.fromkeys(self.COUNTS, 0)
        for event in passes:
            tags = event.tags
            assert (tags["window_docs"] + tags["sequential_docs"]
                    == tags["docs"])
            assert tags["window_patches"] <= tags["movers"] <= tags["docs"]
            assert (tags["gram_rows_single"] + tags["gram_rows_bulk"]
                    <= tags["docs"])
            # a paid row computes only the block rows right of its
            # position (a bulk chunk: right of its first row's), never
            # a whole block row
            paid = tags["gram_rows_single"] + tags["gram_rows_bulk"]
            if paid:
                assert tags["gram_entries"] < paid * DEFAULT_BLOCK_SIZE
            else:
                assert tags["gram_entries"] == 0
            for name in self.COUNTS:
                totals[name] += tags[name]
        # every way of deciding and of paying was taken somewhere
        assert all(totals.values()), totals

    def test_null_recorder_counts_nothing(self, stream):
        _, batches = stream
        seen = []
        engine = self.counting_engine(seen)
        model = ForgettingModel(half_life=7.0, life_span=14.0)
        clusterer = IncrementalClusterer(model, k=4, seed=0, engine=engine)
        for day, batch in enumerate(batches):
            clusterer.process_batch(batch, at_time=float(day + 1))
        assert seen and all(counts is None for counts in seen)

        seen.clear()
        run_incremental(InMemoryRecorder(), batches, engine=engine)
        assert seen and all(counts is not None for counts in seen)


class TestAmbientPickup:
    def test_clusterer_built_under_use_recorder_is_instrumented(
        self, stream
    ):
        _, batches = stream
        model = ForgettingModel(half_life=7.0, life_span=14.0)
        with use_recorder(InMemoryRecorder()) as recorder:
            clusterer = IncrementalClusterer(model, k=4, seed=0)
        # events flow even after the ambient scope closed: the
        # recorder was captured at construction
        clusterer.process_batch(batches[0], at_time=1.0)
        assert recorder.total("pipeline.batches") == 1

    def test_set_recorder_rebinds_all_components(self, stream):
        _, batches = stream
        model = ForgettingModel(half_life=7.0, life_span=14.0)
        clusterer = IncrementalClusterer(model, k=4, seed=0)
        clusterer.process_batch(batches[0], at_time=1.0)
        recorder = InMemoryRecorder()
        clusterer.set_recorder(recorder)
        clusterer.process_batch(batches[1], at_time=2.0)
        assert recorder.total("pipeline.batches") == 1
        assert "statistics.observe" in recorder.names()
        assert "kmeans.fit" in recorder.names()


class TestTimingsBackwardCompat:
    def test_scale_fold_counter(self):
        """A huge clock jump folds the term scale and is counted."""
        recorder = InMemoryRecorder()
        model = ForgettingModel(half_life=7.0)  # no expiry
        stats = CorpusStatistics(model, recorder=recorder)
        stats.observe([make_document("a", 0.0, {0: 1})], at_time=0.0)
        stats.advance_to(1e5)  # λ^1e5 underflows the scale floor
        assert recorder.total("statistics.scale_folds") >= 1
