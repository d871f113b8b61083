"""Crash recovery: newest valid checkpoint + its log.

:func:`recover` is the single entry point a restarted deployment calls.
It (1) restores the clusterer from the newest *valid* checkpoint — the
primary file if its checksum verifies and it restores, else the
``.bak`` generation the atomic writer rotated out (covers a crash
between the two renames of a checkpoint write), and (2) re-applies
every logged batch beyond the checkpoint's sequence.

Before decoding, recovery interns the checkpoint's ``terms`` and then
each log line's new terms, in order: into a fresh
:class:`~repro.text.vocabulary.Vocabulary` this reproduces the live
term ids and every document's row order.

Only format version 3 is read. A version-1 or -2 checkpoint is a
:class:`~repro.exceptions.CheckpointError` whose message gives the
migration; a version-1 or -2 journal beside a version-3 base is
treated as absent, as is any unreadable journal (the base was written
before the log restarted, so it holds every batch such a journal could
add).

The base and each log line carry the same two members, ``documents``
and ``assignment``, and recovery applies both through one function,
:meth:`~repro.core.incremental.IncrementalClusterer.restore_batch`:
observe at the recorded clock, expire, then take the recorded
assignment. No K-means runs, and the view is frozen when a snapshot
first asks for it. By Eq. 27-29 the statistics after observing a batch
at its ``at_time`` depend only on (state at the previous clock, batch,
at_time) — decay composes multiplicatively (λ^Δ₁·λ^Δ₂ = λ^(Δ₁+Δ₂)), so
skipping the intermediate empty windows of the original run changes
nothing — and the assignment is the run's own. Recovery therefore
lands on a state bit-equal to some batch-prefix of the uninterrupted
run — the property the fault-injection suite (``tests/durability/``)
asserts for every crash point it can inject.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.incremental import IncrementalClusterer
from ..corpus.loaders import record_to_document
from ..exceptions import (
    AssignmentMismatchError,
    CheckpointError,
    JournalError,
)
from ..obs import Recorder, Span, resolve
from ..persistence import _restore_state, read_checkpoint_state
from ..text.vocabulary import Vocabulary
from .atomic import PathLike, backup_path
from .journal import default_journal_path, read_journal


@dataclass
class RecoveryResult:
    """What :func:`recover` restored and how it got there."""

    clusterer: IncrementalClusterer
    vocabulary: Vocabulary
    #: Batches the restored state reflects (checkpoint + replays).
    sequence: int
    #: The checkpoint file actually loaded (primary or its ``.bak``).
    checkpoint_path: Path
    #: The journal the replay read.
    journal_path: Path
    #: Log entries re-applied on top of the checkpoint.
    replayed_batches: int
    #: True when the primary checkpoint was unusable and ``.bak`` served.
    used_backup: bool
    #: True when a torn journal tail was discarded during replay.
    journal_truncated: bool


def recover(
    checkpoint_path: PathLike,
    vocabulary: Optional[Vocabulary] = None,
    journal_path: Optional[PathLike] = None,
    recorder: Optional[Recorder] = None,
) -> RecoveryResult:
    """Restore the newest recoverable state for ``checkpoint_path``.

    Tries the primary checkpoint, then its ``.bak`` rotation; raises
    :class:`CheckpointError` when neither is a valid checkpoint. A file
    that parses but does not restore (a clock that is not a number, an
    assignment that does not fit its documents) is not valid. The
    log (``journal_path``, default ``<checkpoint>.journal``) is then
    re-applied: entries already absorbed by the checkpoint are skipped,
    a torn tail is discarded (so is a line whose recorded assignment
    does not fit the active documents it lands on, and what follows
    it; any other rejection of a line raises, as through
    ``process_batch``), and a journal that is *unreadable* (a corrupt
    header, or a version other than 3) is treated as absent — the
    checkpoint alone is still a consistent prefix. A journal whose base sequence is *ahead* of the
    recovered checkpoint is likewise discarded when the ``.bak``
    generation served (the journal was rotated against the newer,
    now-lost primary), but raises for a valid primary — there it means
    mixed-up files, and ignoring it would silently drop acknowledged
    batches.
    """
    rec = resolve(recorder)
    with Span(rec, "durability.recover") as span:
        target = Path(checkpoint_path)
        chosen: Optional[Path] = None
        state: Dict[str, Any] = {}
        failures: List[str] = []
        for candidate in (target, backup_path(target)):
            if not candidate.exists():
                failures.append(f"{candidate}: not found")
                continue
            # a file that parses but does not restore is as unusable as
            # one that does not parse
            try:
                state = read_checkpoint_state(candidate)
                with Span(resolve(None), "checkpoint.load") as load:
                    clusterer, restored = _restore_state(
                        candidate, state, vocabulary
                    )
                    load.tags["docs"] = clusterer.statistics.size
            except CheckpointError as exc:
                failures.append(str(exc))
                continue
            chosen = candidate
            break
        if chosen is None:
            raise CheckpointError(
                f"no recoverable checkpoint for {target}: "
                + "; ".join(failures)
            )
        vocabulary = restored
        used_backup = chosen != target
        if used_backup and rec.enabled:
            rec.counter("durability.checkpoint_fallback")

        sequence = int(state.get("sequence", 0))
        if recorder is not None:
            clusterer.set_recorder(rec)

        journal = (
            Path(journal_path) if journal_path is not None
            else default_journal_path(target)
        )
        replayed = 0
        truncated = False
        if journal.exists():
            try:
                contents = read_journal(journal)
            except JournalError:
                if rec.enabled:
                    rec.counter("durability.journal_discarded")
                contents = None
            if contents is not None and contents.base_sequence > sequence:
                if not used_backup:
                    # a valid primary checkpoint paired with a journal
                    # from its future means the files were mixed up —
                    # replaying nothing would silently lose batches the
                    # journal proves were acknowledged
                    raise CheckpointError(
                        f"{journal}: journal base sequence "
                        f"{contents.base_sequence} is ahead of "
                        f"checkpoint sequence {sequence} ({chosen}); "
                        f"the journal does not extend this checkpoint"
                    )
                # expected when the primary rotted away after its
                # journal rotation: the .bak is one checkpoint staler
                # than the journal's base, and is itself a consistent
                # prefix — recover it rather than refuse
                if rec.enabled:
                    rec.counter("durability.journal_discarded")
                contents = None
            if contents is not None:
                truncated = contents.truncated
                for entry in contents.entries:
                    # the terms the line added, in id order: the live ids
                    for term in entry.terms:
                        vocabulary.add(term)
                    if entry.sequence <= sequence:
                        continue
                    batch = [
                        record_to_document(record, vocabulary)
                        for record in entry.records
                    ]
                    try:
                        clusterer.restore_batch(
                            batch, entry.at_time, entry.assignment
                        )
                    except AssignmentMismatchError:
                        # rolled back: the intact prefix ends here
                        truncated = True
                        break
                    sequence = entry.sequence
                    replayed += 1
        if rec.enabled and replayed:
            rec.counter("durability.replayed_batches", replayed)
        span.tags["replayed"] = replayed
        span.tags["sequence"] = sequence
    return RecoveryResult(
        clusterer=clusterer,
        vocabulary=vocabulary,
        sequence=sequence,
        checkpoint_path=chosen,
        journal_path=journal,
        replayed_batches=replayed,
        used_backup=used_backup,
        journal_truncated=truncated,
    )
