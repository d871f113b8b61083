"""Crash recovery: newest valid checkpoint + journal replay.

:func:`recover` is the single entry point a restarted deployment calls.
It (1) picks the newest *valid* checkpoint — the primary file if its
checksum verifies, else the ``.bak`` generation the atomic writer
rotated out (covers a crash between the two renames of a checkpoint
write), (2) restores the clusterer from it, and (3) replays every
journaled batch beyond the checkpoint's sequence through
``process_batch``.

Before decoding, recovery interns the checkpoint's ``terms`` and then
each journal line's new terms, in order: into a fresh
:class:`~repro.text.vocabulary.Vocabulary` this reproduces the live
term ids and every document's row order (format version 2; version-1
files carry no term list and are read as before).

The replay is **exact**: a journal entry stores the batch's documents
and its update time ``at_time``, and by Eq. 27-29 the statistics after
``advance_to(at_time)`` + insertion depend only on (state at the
checkpoint clock, batch, at_time) — decay composes multiplicatively
(λ^Δ₁·λ^Δ₂ = λ^(Δ₁+Δ₂)), so skipping the intermediate empty windows of
the original run changes nothing. Recovery therefore lands on a state
bit-equal to some batch-prefix of the uninterrupted run — the property
the fault-injection suite (``tests/durability/``) asserts for every
crash point it can inject.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from ..core.incremental import IncrementalClusterer
from ..corpus.loaders import record_to_document
from ..exceptions import CheckpointError, JournalError
from ..obs import Recorder, Span, resolve
from ..persistence import load_checkpoint, read_checkpoint_state
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
    #: Journal entries replayed through ``process_batch``.
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
    :class:`CheckpointError` when neither is a valid checkpoint. The
    journal (``journal_path``, default ``<checkpoint>.journal``) is
    then replayed: entries already absorbed by the checkpoint are
    skipped, a torn tail is discarded, and a journal that is
    *unreadable* (corrupt header) is treated as absent — the checkpoint
    alone is still a consistent prefix. A journal whose base sequence
    is *ahead* of the recovered checkpoint is likewise discarded when
    the ``.bak`` generation served (the journal was rotated against the
    newer, now-lost primary), but raises for a valid primary — there it
    means mixed-up files, and ignoring it would silently drop
    acknowledged batches.
    """
    rec = resolve(recorder)
    with Span(rec, "durability.recover") as span:
        target = Path(checkpoint_path)
        chosen: Optional[Path] = None
        sequence = 0
        failures: List[str] = []
        for candidate in (target, backup_path(target)):
            if not candidate.exists():
                failures.append(f"{candidate}: not found")
                continue
            try:
                state = read_checkpoint_state(candidate)
            except CheckpointError as exc:
                failures.append(str(exc))
                continue
            chosen = candidate
            sequence = int(state.get("sequence", 0))
            break
        if chosen is None:
            raise CheckpointError(
                f"no recoverable checkpoint for {target}: "
                + "; ".join(failures)
            )
        used_backup = chosen != target
        if used_backup and rec.enabled:
            rec.counter("durability.checkpoint_fallback")

        clusterer, vocabulary = load_checkpoint(chosen, vocabulary)
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
                    clusterer.process_batch(batch, at_time=entry.at_time)
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
