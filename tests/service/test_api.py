"""repro.api: build_clusterer and the open_stream facade."""

from __future__ import annotations

import pytest

from repro import IncrementalClusterer
from repro.api import StreamSession, build_clusterer, open_stream
from repro.durability import read_journal
from repro.exceptions import ConfigurationError
from repro.obs import InMemoryRecorder, NullRecorder, use_recorder

from .conftest import SERVICE_KWARGS, assert_snapshot_parity, reference_snapshot


class TestBuildClusterer:
    def test_builds_from_knobs(self):
        clusterer = build_clusterer(k=4, seed=2, half_life=3.0)
        assert isinstance(clusterer, IncrementalClusterer)
        assert clusterer.kmeans.k == 4
        assert clusterer.model.half_life == 3.0

    def test_k_required_without_config(self):
        with pytest.raises(ConfigurationError, match="k is required"):
            build_clusterer()


class TestOpenStream:
    def test_session_ingests_and_queries(self, stream):
        _, batches = stream
        with open_stream(**SERVICE_KWARGS) as session:
            assert isinstance(session, StreamSession)
            for at_time, batch in batches[:3]:
                session.add(batch, at_time=at_time)
            snapshot = session.flush()
            assert snapshot.version == 3
            assert session.version == 3
            assert session.stats().version == 3
            assert session.top_clusters()
            assert not session.errors
        assert session.closed

    def test_always_has_a_vocabulary(self):
        with open_stream(**SERVICE_KWARGS) as session:
            assert session.vocabulary is not None

    def test_text_assign_round_trip(self):
        # documents interned through the session vocabulary can be
        # queried back as raw text — the snapshot carries the front-end
        from tests.conftest import build_topic_repository

        repository = build_topic_repository()
        with open_stream(
            vocabulary=repository.vocabulary,
            pipeline=repository.pipeline,
            **SERVICE_KWARGS,
        ) as session:
            documents = sorted(
                repository.documents(), key=lambda d: d.timestamp
            )
            session.add(documents, at_time=documents[-1].timestamp + 1.0)
            session.flush()
            answer = session.assign(
                "sports team wins the championship game"
            )
            assert answer.version == 1

    def test_resume_rejects_pipeline_knobs(self, tmp_path):
        with pytest.raises(ConfigurationError, match="resume"):
            open_stream(resume=tmp_path / "none.ckpt", k=3)

    def test_checkpointed_session_resumes_with_continuing_versions(
        self, stream, tmp_path
    ):
        vocabulary, batches = stream
        path = tmp_path / "run.ckpt"
        with open_stream(
            vocabulary=vocabulary, checkpoint=path, **SERVICE_KWARGS
        ) as session:
            for at_time, batch in batches[:3]:
                session.add(batch, at_time=at_time)
            assert session.flush().version == 3

        with open_stream(resume=path) as session:
            assert session.version == 3
            at_time, batch = batches[3]
            session.add(batch, at_time=at_time)
            snapshot = session.flush()
            assert snapshot.version == 4
            assert_snapshot_parity(
                snapshot, reference_snapshot(batches, 4)
            )
            journal = read_journal(
                session.service._checkpointer.journal_path
            )
            assert journal.base_sequence + len(journal.entries) == 4

    def test_passed_recorder_sees_durability_metrics(self, stream, tmp_path):
        # the ambient recorder stays the Null one: everything durable
        # must reach the recorder handed to open_stream
        vocabulary, batches = stream
        recorder = InMemoryRecorder()
        # the first batch is journaled, the second is checkpointed
        # (a batch whose checkpoint is due gets no journal line)
        with use_recorder(NullRecorder()):
            with open_stream(
                vocabulary=vocabulary, checkpoint=tmp_path / "run.ckpt",
                checkpoint_every=2, recorder=recorder, **SERVICE_KWARGS,
            ) as session:
                recorder.clear()
                for at_time, batch in batches[:2]:
                    session.add(batch, at_time=at_time)
                session.flush()
                names = recorder.names()
        assert {
            "checkpoint.save", "checkpoint.bytes",
            "durability.journal_batches", "journal.append",
            "journal.rotate", "durability.journal_skipped",
        } <= names
