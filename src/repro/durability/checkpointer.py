"""Durable batches for long on-line runs: a base plus an append-only log.

``repro cluster --checkpoint`` used to write state once, at the very
end of the run — a crash at window N of M lost everything. The
:class:`Checkpointer` makes every committed batch durable before the
commit hook returns, writing only what the batch changed. Registered
as a commit hook on
:class:`~repro.core.incremental.IncrementalClusterer`, it appends one
fsynced line per batch to the log (``<checkpoint>.journal``): the
batch's documents, the terms they added, its clock and the assignment
after its fit. The base checkpoint is rewritten from live state only
to *compact* the log, when the batch's line would make the log larger
than the base — so the log never outgrows the base, and recovery reads
at most about twice the base.

A compacting batch writes the base and no line. Either way the batch
is fsynced before the hook returns, so a crash loses at most the batch
*being* processed.

Write ordering per batch (the invariant recovery relies on)::

    process_batch commits  →  no compaction: log.write (fsync)
                           →  compaction: checkpoint (atomic, fsync)
                                   → log restarted under the new base
                                   (the checkpoint write failed:
                                    log.write, then re-raise)

A compacting batch gets no log line: the checkpoint that holds it is
fsynced and renamed before the hook returns, and a snapshot is
published only after the hook. So on disk, at every instant,
``checkpoint.sequence`` ≤ the log's last intact sequence + 1, and the
log's ``base_sequence`` never exceeds the newest valid checkpoint's
sequence. ``recover()`` needs exactly that to land on a batch-prefix of
the uninterrupted run.
"""

from __future__ import annotations

import threading
from pathlib import Path
from types import TracebackType
from typing import List, Optional, Type

from ..core.incremental import IncrementalClusterer
from ..corpus.document import Document
from ..exceptions import JournalError
from ..obs import Recorder, resolve
from ..persistence import save_checkpoint
from ..text.vocabulary import Vocabulary
from .atomic import PathLike, prepare_checkpoint_path
from .journal import BatchJournal, EncodedLine, default_journal_path
from .records import RecordCache, assignment_text


class Checkpointer:
    """Owns the checkpoint file and batch log of one run.

    >>> checkpointer = Checkpointer(clusterer, vocab, "state.json")  # doctest: +SKIP
    >>> clusterer.add_commit_hook(checkpointer.record_batch)  # doctest: +SKIP
    >>> ...process batches...  # doctest: +SKIP
    >>> checkpointer.close()  # doctest: +SKIP

    Construction immediately anchors the pair on disk: the current
    state is checkpointed (even a fresh, never-fed clusterer — its
    checkpoint is trivially loadable) and the log restarted against
    it, so recovery is well-defined from the first batch on. Pass
    ``sequence`` when the clusterer was itself restored by
    :func:`~repro.durability.recover` so numbering continues.
    """

    def __init__(
        self,
        clusterer: IncrementalClusterer,
        vocabulary: Vocabulary,
        checkpoint_path: PathLike,
        journal_path: Optional[PathLike] = None,
        sequence: int = 0,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.clusterer = clusterer
        self.vocabulary = vocabulary
        self.checkpoint_path = prepare_checkpoint_path(checkpoint_path)
        self.sequence = int(sequence)
        self.recorder = resolve(recorder)
        self._since_checkpoint = 0
        # serializes record_batch against close()/abort(): a service
        # shutting down can race its writer's final commit
        self._lock = threading.Lock()
        self._closed = False
        # the fragments of each active document and the term strings,
        # encoded once: the log adds each batch's, every checkpoint
        # reuses them, and both prune them to the active set
        self._cache = RecordCache(vocabulary)
        self._base_bytes = self._write_checkpoint(self.sequence)
        self._journal = BatchJournal(
            (
                Path(journal_path) if journal_path is not None
                else default_journal_path(self.checkpoint_path)
            ),
            self._cache,
            base_sequence=self.sequence,
            recorder=self.recorder,
        )

    @property
    def journal_path(self) -> Path:
        return self._journal.path

    @property
    def closed(self) -> bool:
        """True once :meth:`close` or :meth:`abort` has run."""
        return self._closed

    def record_batch(
        self, documents: List[Document], at_time: float
    ) -> None:
        """Commit hook: log the batch, or compact when due."""
        with self._lock:
            if self._journal.closed:
                raise JournalError(
                    f"{self._journal.path}: journal is closed"
                )
            active = self.clusterer.statistics.doc_ids()
            line = self._journal.encode(documents, at_time, assignment_text(
                active, self.clusterer.assignments()
            ))
            if not self._compaction_due(line):
                self._write(line)
                self._cache.prune(active)
                return
            try:
                self._base_bytes = self._write_checkpoint(self.sequence + 1)
            except BaseException:
                # the batch is committed: it must reach the disk before
                # the failure surfaces
                self._write(line)
                raise
            self.sequence += 1
            self._rotate()
            if self.recorder.enabled:
                self.recorder.counter("durability.journal_skipped")

    def _compaction_due(self, line: EncodedLine) -> bool:
        """The compaction rule: rewrite the base instead of logging
        ``line`` when it would make the log larger than the base."""
        return self._journal.size + len(line.data) > self._base_bytes

    def _write(self, line: EncodedLine) -> None:
        self._journal.write(line)
        self.sequence += 1
        self._since_checkpoint += 1

    def _rotate(self) -> None:
        self._journal.rotate(self.sequence)
        self._since_checkpoint = 0

    def _write_checkpoint(self, sequence: int) -> int:
        written = save_checkpoint(
            self.clusterer, self.vocabulary, self.checkpoint_path,
            sequence=sequence, cache=self._cache,
            recorder=self.recorder,
        )
        if self.recorder.enabled:
            self.recorder.counter("durability.checkpoints_written")
        return written

    def close(self) -> None:
        """Flush a final checkpoint (if batches are pending) and stop.

        Idempotent and thread-safe: concurrent or repeated calls (the
        service shutdown path and a ``with`` block both closing, or a
        close racing the writer's final ``record_batch``) serialize on
        the internal lock and flush exactly once. The log handle is
        closed even when the final checkpoint write fails — its fsynced
        entries are the recovery path then.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self._journal.closed:
                try:
                    if self._since_checkpoint:
                        self._write_checkpoint(self.sequence)
                        self._rotate()
                finally:
                    self._journal.close()

    def abort(self) -> None:
        """Stop *without* the final checkpoint (crash simulation).

        Closes the log handle and nothing else: the on-disk state is
        exactly what a hard kill would leave — a base plus fsynced log
        lines — which is what :func:`~repro.durability.recover` reads.
        Idempotent, like :meth:`close`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._journal.close()

    def __enter__(self) -> "Checkpointer":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self.close()
        return False
