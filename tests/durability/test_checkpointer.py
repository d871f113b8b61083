"""The compaction rule, the fixed test cadence, and commit-hook
integration."""

from __future__ import annotations

import pytest

from repro import Checkpointer
from repro.durability.journal import read_journal
from repro.exceptions import ConfigurationError
from repro.persistence import read_checkpoint_state

from tests.durability.conftest import (
    CadenceCheckpointer,
    assert_state_matches,
    build_batches,
    fingerprint,
    make_clusterer,
    reference_states,
)


@pytest.fixture(scope="module")
def stream():
    return build_batches(days=6)


def checkpoint_sequence(path):
    return read_checkpoint_state(path).get("sequence")


class TestCadence:
    def test_construction_anchors_pair_on_disk(self, stream, tmp_path):
        vocabulary, _ = stream
        path = tmp_path / "state.json"
        checkpointer = Checkpointer(make_clusterer(), vocabulary, path)
        assert checkpoint_sequence(path) == 0
        contents = read_journal(checkpointer.journal_path)
        assert contents.base_sequence == 0
        assert contents.entries == ()
        checkpointer.close()

    def test_every_window_with_every_1(self, stream, tmp_path):
        vocabulary, batches = stream
        path = tmp_path / "state.json"
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(clusterer, vocabulary, path, every=1)
        clusterer.add_commit_hook(checkpointer.record_batch)
        for n, (at_time, batch) in enumerate(batches, start=1):
            clusterer.process_batch(batch, at_time=at_time)
            assert checkpoint_sequence(path) == n
            assert read_journal(checkpointer.journal_path).entries == ()
        checkpointer.close()

    def test_the_log_is_compacted_by_size_by_default(self, stream, tmp_path):
        """The rule: a batch is logged unless its line would make the
        log larger than the base; then it rewrites the base and gets no
        line."""
        vocabulary, batches = stream
        path = tmp_path / "state.json"
        clusterer = make_clusterer()
        checkpointer = Checkpointer(clusterer, vocabulary, path)
        clusterer.add_commit_hook(checkpointer.record_batch)
        journal = checkpointer.journal_path
        compacted = logged = 0
        for n, (at_time, batch) in enumerate(batches, start=1):
            base = path.stat().st_size
            clusterer.process_batch(batch, at_time=at_time)
            contents = read_journal(journal)
            if checkpoint_sequence(path) == n:
                compacted += 1
                assert contents.base_sequence == n
                assert contents.entries == ()
            else:
                logged += 1
                assert path.stat().st_size == base
                assert contents.entries[-1].sequence == n
                assert journal.stat().st_size <= base
            assert journal.stat().st_size <= path.stat().st_size
        assert compacted and logged
        checkpointer.close()

    def test_every_n_checkpoints_on_multiples(self, stream, tmp_path):
        vocabulary, batches = stream
        path = tmp_path / "state.json"
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, path, every=3
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        for n, (at_time, batch) in enumerate(batches, start=1):
            clusterer.process_batch(batch, at_time=at_time)
            due = (n // 3) * 3
            assert checkpoint_sequence(path) == due
            journal = read_journal(checkpointer.journal_path)
            assert journal.base_sequence == due
            assert len(journal.entries) == n - due
        checkpointer.close()

    def test_close_flushes_pending_batches(self, stream, tmp_path):
        vocabulary, batches = stream
        path = tmp_path / "state.json"
        clusterer = make_clusterer()
        with CadenceCheckpointer(
            clusterer, vocabulary, path, every=100
        ) as checkpointer:
            clusterer.add_commit_hook(checkpointer.record_batch)
            for at_time, batch in batches:
                clusterer.process_batch(batch, at_time=at_time)
            assert checkpoint_sequence(path) == 0
        assert checkpoint_sequence(path) == len(batches)
        assert checkpointer.journal_path.exists()

    def test_close_twice_is_idempotent(self, stream, tmp_path):
        vocabulary, _ = stream
        checkpointer = Checkpointer(
            make_clusterer(), vocabulary, tmp_path / "state.json"
        )
        checkpointer.close()
        checkpointer.close()

    def test_final_checkpoint_matches_live_state(self, stream, tmp_path):
        vocabulary, batches = stream
        clusterer = make_clusterer()
        with CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=4
        ) as checkpointer:
            clusterer.add_commit_hook(checkpointer.record_batch)
            for at_time, batch in batches:
                clusterer.process_batch(batch, at_time=at_time)
        references = reference_states(batches)
        assert fingerprint(clusterer) == references[len(batches)]
        assert checkpoint_sequence(checkpointer.checkpoint_path) == len(
            batches
        )


class TestCommitHookContract:
    def test_rejected_batch_is_never_journaled(self, stream, tmp_path):
        """Transactional ingestion: a batch that fails validation must
        not reach the journal — replaying it would poison recovery."""
        vocabulary, batches = stream
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=100
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        at_time, batch = batches[0]
        clusterer.process_batch(batch, at_time=at_time)
        with pytest.raises(ConfigurationError):
            clusterer.process_batch(batch, at_time=at_time + 1.0)
        contents = read_journal(checkpointer.journal_path)
        assert [e.sequence for e in contents.entries] == [1]
        assert checkpointer.sequence == 1
        checkpointer.close()

    def test_journaled_state_recovers_after_rejection(
        self, stream, tmp_path
    ):
        """After a rejected batch, the journal still reconstructs the
        committed prefix exactly."""
        from repro import recover

        vocabulary, batches = stream
        clusterer = make_clusterer()
        path = tmp_path / "state.json"
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, path, every=100
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in batches[:2]:
            clusterer.process_batch(batch, at_time=at_time)
        with pytest.raises(ConfigurationError):
            clusterer.process_batch(
                batches[0][1], at_time=batches[1][0] + 1.0
            )
        # crash here: no close(), recover from disk
        recovery = recover(path)
        assert recovery.sequence == 2
        references = reference_states(batches)
        assert_state_matches(recovery.clusterer, references[2])


class TestShutdown:
    """close()/abort() semantics, including racing a live writer."""

    def test_close_is_idempotent(self, stream, tmp_path):
        vocabulary, batches = stream
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=3
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        clusterer.process_batch(batches[0][1], at_time=batches[0][0])
        checkpointer.close()
        assert checkpointer.closed
        checkpointer.close()  # second close is a clean no-op
        assert checkpoint_sequence(checkpointer.checkpoint_path) == 1

    def test_close_mid_window_flushes_pending_checkpoint(
        self, stream, tmp_path
    ):
        """every=3 with 2 committed batches: the periodic checkpoint
        never fired, so close() must write one — otherwise those
        batches exist only in the journal."""
        vocabulary, batches = stream
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=3
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in batches[:2]:
            clusterer.process_batch(batch, at_time=at_time)
        assert checkpoint_sequence(checkpointer.checkpoint_path) == 0
        checkpointer.close()
        assert checkpoint_sequence(checkpointer.checkpoint_path) == 2
        # and the journal was rotated against the final checkpoint
        contents = read_journal(checkpointer.journal_path)
        assert contents.base_sequence == 2
        assert contents.entries == ()

    def test_close_without_pending_batches_writes_nothing_new(
        self, stream, tmp_path
    ):
        vocabulary, batches = stream
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=1
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        clusterer.process_batch(batches[0][1], at_time=batches[0][0])
        before = checkpointer.checkpoint_path.stat().st_mtime_ns
        checkpointer.close()
        assert checkpointer.checkpoint_path.stat().st_mtime_ns == before

    def test_concurrent_close_closes_exactly_once(self, stream, tmp_path):
        """Two racing closers (the service shutdown path plus a with-
        block exit) must not double-flush or error."""
        import threading

        vocabulary, batches = stream
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=100
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in batches[:2]:
            clusterer.process_batch(batch, at_time=at_time)

        errors = []

        def closer() -> None:
            try:
                checkpointer.close()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not errors
        assert checkpointer.closed
        assert checkpoint_sequence(checkpointer.checkpoint_path) == 2

    def test_record_batch_racing_close_never_tears(self, stream, tmp_path):
        """A writer committing its final batch while close() runs: the
        batch is either fully journaled before the final checkpoint, or
        it fails — never half-written."""
        import threading

        vocabulary, batches = stream
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=100
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        clusterer.process_batch(batches[0][1], at_time=batches[0][0])

        start = threading.Barrier(2)
        outcome = {}

        def commit() -> None:
            start.wait()
            try:
                clusterer.process_batch(
                    batches[1][1], at_time=batches[1][0]
                )
                outcome["committed"] = True
            except BaseException:  # noqa: BLE001 - journal closed race
                outcome["committed"] = False

        def shutdown() -> None:
            start.wait()
            checkpointer.close()

        threads = [
            threading.Thread(target=commit),
            threading.Thread(target=shutdown),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)

        # whatever interleaving happened, the on-disk state is one of
        # the two consistent outcomes
        sequence = checkpoint_sequence(checkpointer.checkpoint_path)
        if outcome["committed"] and sequence == 2:
            pass  # batch won the race and made the final checkpoint
        else:
            assert sequence == 1  # close won; checkpoint holds batch 1

    def test_abort_skips_final_checkpoint(self, stream, tmp_path):
        """abort() is the crash hatch: journal entries survive, the
        checkpoint stays stale, and recovery replays the difference."""
        from repro import recover

        vocabulary, batches = stream
        clusterer = make_clusterer()
        checkpointer = CadenceCheckpointer(
            clusterer, vocabulary, tmp_path / "state.json", every=100
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
        for at_time, batch in batches[:3]:
            clusterer.process_batch(batch, at_time=at_time)
        checkpointer.abort()
        assert checkpointer.closed
        # checkpoint is the construction-time image...
        assert checkpoint_sequence(checkpointer.checkpoint_path) == 0
        # ...but the journal kept every committed batch
        contents = read_journal(checkpointer.journal_path)
        assert [e.sequence for e in contents.entries] == [1, 2, 3]
        recovery = recover(tmp_path / "state.json")
        assert recovery.sequence == 3
        assert_state_matches(
            recovery.clusterer, reference_states(batches)[3]
        )

    def test_record_batch_after_close_raises(self, stream, tmp_path):
        vocabulary, batches = stream
        clusterer = make_clusterer()
        checkpointer = Checkpointer(
            clusterer, vocabulary, tmp_path / "state.json"
        )
        checkpointer.close()
        with pytest.raises(Exception):
            checkpointer.record_batch(batches[0][1], batches[0][0])
