"""Tests for checkpoint save/restore of the on-line clusterer."""

import json
import math
import os

import pytest

from repro import (
    CheckpointError,
    ForgettingModel,
    IncrementalClusterer,
    load_checkpoint,
    save_checkpoint,
)
from tests.conftest import build_topic_repository
from tests.oracles.serialisation import stamped


def run_stream(clusterer, repo, days, start=0):
    result = None
    for day in range(start, days):
        batch = [d for d in repo if int(d.timestamp) == day]
        if batch:
            result = clusterer.process_batch(batch, at_time=float(day + 1))
        else:
            clusterer.statistics.advance_to(float(day + 1))
    return result


@pytest.fixture
def stream():
    return build_topic_repository(days=10, docs_per_topic_per_day=2, seed=3)


class TestRoundTrip:
    def test_statistics_restored_exactly(self, stream, tmp_path):
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(model, k=3, seed=1)
        run_stream(clusterer, stream, days=6)
        path = tmp_path / "state.json"
        save_checkpoint(clusterer, stream.vocabulary, path)

        restored, vocab = load_checkpoint(path, stream.vocabulary)
        live, back = clusterer.statistics, restored.statistics
        assert set(live.doc_ids()) == set(back.doc_ids())
        assert math.isclose(live.tdw, back.tdw, rel_tol=1e-12)
        assert live.now == back.now
        for term_id in live.term_ids():
            assert math.isclose(
                live.pr_term(term_id), back.pr_term(term_id),
                rel_tol=1e-9,
            )

    def test_assignment_restored(self, stream, tmp_path):
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(model, k=3, seed=1)
        run_stream(clusterer, stream, days=6)
        path = tmp_path / "state.json"
        save_checkpoint(clusterer, stream.vocabulary, path)
        restored, _ = load_checkpoint(path, stream.vocabulary)
        assert restored.assignments() == clusterer.assignments()

    def test_continuation_matches_uninterrupted_run(self, stream, tmp_path):
        """Checkpoint at day 6, continue to day 10: same clustering as a
        run that never stopped (determinism across restore)."""
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        continuous = IncrementalClusterer(model, k=3, seed=1)
        run_stream(continuous, stream, days=6)
        path = tmp_path / "state.json"
        save_checkpoint(continuous, stream.vocabulary, path)
        final_continuous = run_stream(continuous, stream, days=10, start=6)

        restored, _ = load_checkpoint(path, stream.vocabulary)
        final_restored = run_stream(restored, stream, days=10, start=6)

        assert (
            sorted(map(sorted, final_restored.clusters))
            == sorted(map(sorted, final_continuous.clusters))
        )
        assert set(final_restored.outliers) == set(final_continuous.outliers)

    def test_fresh_vocabulary_grows_consistently(self, stream, tmp_path):
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(model, k=3, seed=1)
        run_stream(clusterer, stream, days=6)
        path = tmp_path / "state.json"
        save_checkpoint(clusterer, stream.vocabulary, path)
        restored, vocab = load_checkpoint(path)  # no vocabulary given
        assert vocab is not stream.vocabulary
        assert len(vocab) > 0
        # same statistics despite different term ids
        assert math.isclose(
            restored.statistics.tdw, clusterer.statistics.tdw,
            rel_tol=1e-12,
        )

    def test_config_preserved(self, stream, tmp_path):
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(
            model, k=5, delta=0.02, max_iterations=17, seed=9,
            warm_start=False, rescue_outliers=False,
        )
        run_stream(clusterer, stream, days=3)
        path = tmp_path / "state.json"
        save_checkpoint(clusterer, stream.vocabulary, path)
        restored, _ = load_checkpoint(path, stream.vocabulary)
        km = restored.kmeans
        assert (km.k, km.delta, km.max_iterations, km.seed,
                km.engine.name) == (
            5, 0.02, 17, 9, "matrix",
        )
        assert restored.warm_start is False
        assert km.rescue_outliers is False
        assert restored.model.half_life == 4.0


class TestAtomicSave:
    def test_failed_save_preserves_previous_checkpoint(
        self, stream, tmp_path, monkeypatch
    ):
        """A write failure mid-dump must not clobber the old checkpoint
        (regression: save opened the target with "w")."""
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(model, k=3, seed=1)
        run_stream(clusterer, stream, days=6)
        path = tmp_path / "state.json"
        save_checkpoint(clusterer, stream.vocabulary, path)
        good = path.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        # dies at the fsync of the temp file, before any rename
        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError):
            save_checkpoint(clusterer, stream.vocabulary, path)
        assert path.read_bytes() == good
        assert list(tmp_path.glob("*.tmp")) == []

    def test_save_never_leaves_temp_files(self, stream, tmp_path):
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(model, k=3, seed=1)
        run_stream(clusterer, stream, days=6)
        path = tmp_path / "state.json"
        save_checkpoint(clusterer, stream.vocabulary, path)
        save_checkpoint(clusterer, stream.vocabulary, path)  # overwrite
        assert list(tmp_path.glob("*.tmp")) == []
        load_checkpoint(path, stream.vocabulary)  # still valid JSON


class TestErrors:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="invalid JSON"):
            load_checkpoint(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(
            {"format": "repro-checkpoint", "version": 99}
        ))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(
            {"format": "repro-checkpoint", "version": 3,
             "model": {"half_life": 7.0, "life_span": None},
             "terms": [], "documents": [], "assignment": ""}
        ))
        with pytest.raises(CheckpointError, match="missing field"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "ghost.json")


class TestMalformedNested:
    def test_missing_nested_key_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({
            "format": "repro-checkpoint", "version": 3,
            "model": {"half_life": 7.0},  # life_span missing
            "kmeans": {}, "now": 0.0, "terms": [], "documents": [],
            "assignment": "",
        }))
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)


class TestFreshClustererCheckpoint:
    def test_checkpoint_before_any_batch_roundtrips(self, tmp_path):
        """Regression: 'now: null' checkpoints used to crash on load."""
        from repro import Vocabulary

        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(model, k=3, seed=1)
        path = tmp_path / "fresh.json"
        save_checkpoint(clusterer, Vocabulary(), path)
        restored, _ = load_checkpoint(path)
        assert restored.statistics.size == 0
        assert restored.statistics.now is None

    def test_bad_criterion_rejected(self, tmp_path, stream):
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(model, k=3, seed=1)
        run_stream(clusterer, stream, days=3)
        path = tmp_path / "state.json"
        save_checkpoint(clusterer, stream.vocabulary, path)
        state = json.loads(path.read_text())
        state["kmeans"]["criterion"] = "gg-typo"
        del state["checksum"]  # hand-edited: force a load anyway
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="criterion"):
            load_checkpoint(path, stream.vocabulary)


class TestStatisticsBackendField:
    def test_backend_name_round_trips(self, stream, tmp_path):
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(model, k=3, seed=1)
        run_stream(clusterer, stream, days=6)
        path = tmp_path / "state.json"
        save_checkpoint(clusterer, stream.vocabulary, path)
        # both names stay in the file, so older readers still load it
        state = json.load(open(path))
        assert state["statistics_backend"] == "columnar"
        assert state["kmeans"]["engine"] == "matrix"

        restored, _ = load_checkpoint(path, stream.vocabulary)
        assert restored.statistics.backend_name == "columnar"
        assert math.isclose(
            restored.statistics.tdw, clusterer.statistics.tdw,
            rel_tol=1e-12,
        )


def _rewrite(path, edit):
    """Edit the checkpoint and re-stamp it with its byte checksum, as
    the writer stamps it."""
    state = json.load(open(path))
    del state["checksum"]
    edit(state)
    path.write_text(stamped(state), encoding="utf-8")


class TestRemovedPathMigration:
    """Checkpoints naming a removed engine or backend, or none, load onto
    the production pair."""

    @pytest.mark.parametrize("edit", [
        lambda state: state["kmeans"].update(engine="sparse"),
        lambda state: state["kmeans"].update(engine="pruned"),
        lambda state: state["kmeans"].update(engine="dense"),
        lambda state: state.update(statistics_backend="dict"),
        # checkpoints written before the statistics-backend field
        lambda state: state.pop("statistics_backend"),
    ], ids=["engine-sparse", "engine-pruned", "engine-dense",
            "backend-dict", "backend-missing"])
    def test_loads_onto_the_default_path(self, stream, tmp_path, edit):
        model = ForgettingModel(half_life=4.0, life_span=8.0)
        clusterer = IncrementalClusterer(model, k=3, seed=1)
        run_stream(clusterer, stream, days=6)
        fresh_path = tmp_path / "fresh.json"
        save_checkpoint(clusterer, stream.vocabulary, fresh_path)
        old_path = tmp_path / "old.json"
        save_checkpoint(clusterer, stream.vocabulary, old_path)
        _rewrite(old_path, edit)

        fresh, _ = load_checkpoint(fresh_path, stream.vocabulary)
        old, _ = load_checkpoint(old_path, stream.vocabulary)
        assert old.kmeans.engine.name == "matrix"
        assert old.statistics.backend_name == "columnar"

        assert old.assignments() == fresh.assignments()
        assert old.statistics.now == fresh.statistics.now
        assert math.isclose(old.statistics.tdw, fresh.statistics.tdw,
                            rel_tol=1e-9)
        for doc_id in fresh.statistics.doc_ids():
            assert math.isclose(old.statistics.dw(doc_id),
                                fresh.statistics.dw(doc_id), rel_tol=1e-9)
        for term_id in fresh.statistics.term_ids():
            assert math.isclose(old.statistics.pr_term(term_id),
                                fresh.statistics.pr_term(term_id),
                                rel_tol=1e-9)
        at_time = fresh.statistics.now
        again = old.process_batch([], at_time=at_time)
        expected = fresh.process_batch([], at_time=at_time)
        assert again.clusters == expected.clusters
        assert math.isclose(again.clustering_index,
                            expected.clustering_index, rel_tol=1e-9)
