"""Periodic checkpointing for long on-line runs.

``repro cluster --checkpoint`` used to write state once, at the very
end of the run — a crash at window N of M lost everything. The
:class:`Checkpointer` bounds that loss: registered as a commit hook on
:class:`~repro.core.incremental.IncrementalClusterer`, it journals
every accepted batch (fsynced before the hook returns) and rewrites the
checkpoint every ``every`` windows, rotating the journal under the new
base. With the journal, a crash loses at most the batch *being*
processed; even without replaying it, the checkpoint alone is at most
``every`` windows stale.

Write ordering per batch (the invariant recovery relies on)::

    process_batch commits  →  journal.append (fsync)
                           →  [when due] checkpoint (atomic) → rotate

so on disk, at every instant, ``checkpoint.sequence`` ≤ the journal's
last intact sequence + 1, and the journal's ``base_sequence`` never
exceeds the newest valid checkpoint's sequence. ``recover()`` needs
exactly that to land on a batch-prefix of the uninterrupted run.
"""

from __future__ import annotations

import threading
from pathlib import Path
from types import TracebackType
from typing import List, Optional, Type

from ..core.incremental import IncrementalClusterer
from ..corpus.document import Document
from ..exceptions import ConfigurationError
from ..obs import Recorder, resolve
from ..persistence import save_checkpoint
from ..text.vocabulary import Vocabulary
from .atomic import PathLike, prepare_checkpoint_path
from .journal import BatchJournal, default_journal_path
from .records import RecordCache


class Checkpointer:
    """Owns the checkpoint file and batch journal of one run.

    >>> checkpointer = Checkpointer(clusterer, vocab, "state.json")  # doctest: +SKIP
    >>> clusterer.add_commit_hook(checkpointer.record_batch)  # doctest: +SKIP
    >>> ...process batches...  # doctest: +SKIP
    >>> checkpointer.close()  # doctest: +SKIP

    Construction immediately anchors the pair on disk: the current
    state is checkpointed (even a fresh, never-fed clusterer — its
    checkpoint is trivially loadable) and the journal restarted against
    it, so recovery is well-defined from the first batch on. Pass
    ``sequence`` when the clusterer was itself restored by
    :func:`~repro.durability.recover` so numbering continues.
    """

    def __init__(
        self,
        clusterer: IncrementalClusterer,
        vocabulary: Vocabulary,
        checkpoint_path: PathLike,
        every: int = 1,
        journal_path: Optional[PathLike] = None,
        sequence: int = 0,
        durable: bool = True,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if every < 1:
            raise ConfigurationError(
                f"checkpoint interval must be >= 1 window, got {every}"
            )
        self.clusterer = clusterer
        self.vocabulary = vocabulary
        self.checkpoint_path = prepare_checkpoint_path(checkpoint_path)
        self.every = int(every)
        self.sequence = int(sequence)
        self.recorder = resolve(recorder)
        self.durable = durable
        self._since_checkpoint = 0
        # serializes record_batch/checkpoint against close()/abort():
        # a service shutting down can race its writer's final commit
        self._lock = threading.Lock()
        self._closed = False
        # the fragments of each active document, encoded once: the
        # journal adds each batch's, every checkpoint reuses and prunes
        self._cache = RecordCache(vocabulary)
        self._write_checkpoint()
        self._journal = BatchJournal(
            (
                Path(journal_path) if journal_path is not None
                else default_journal_path(self.checkpoint_path)
            ),
            vocabulary,
            base_sequence=self.sequence,
            base_now=clusterer.statistics.now,
            durable=durable,
            recorder=self.recorder,
            cache=self._cache,
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
        """Commit hook: journal the batch, checkpoint when due."""
        with self._lock:
            self._journal.append(documents, at_time)
            self.sequence += 1
            self._since_checkpoint += 1
            if self._since_checkpoint >= self.every:
                self._checkpoint_locked()

    def checkpoint(self) -> None:
        """Write the checkpoint now and restart the journal against it."""
        with self._lock:
            self._checkpoint_locked()

    def _checkpoint_locked(self) -> None:
        self._write_checkpoint()
        self._journal.rotate(
            self.sequence, self.clusterer.statistics.now
        )
        self._since_checkpoint = 0

    def _write_checkpoint(self) -> None:
        save_checkpoint(
            self.clusterer, self.vocabulary, self.checkpoint_path,
            sequence=self.sequence, cache=self._cache,
            recorder=self.recorder,
        )
        if self.recorder.enabled:
            self.recorder.counter("durability.checkpoints_written")

    def close(self) -> None:
        """Flush a final checkpoint (if batches are pending) and stop.

        Idempotent and thread-safe: concurrent or repeated calls (the
        service shutdown path and a ``with`` block both closing, or a
        close racing the writer's final ``record_batch``) serialize on
        the internal lock and flush exactly once. The journal handle is
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
                        self._checkpoint_locked()
                finally:
                    self._journal.close()

    def abort(self) -> None:
        """Stop *without* the final checkpoint (crash simulation).

        Closes the journal handle and nothing else: the on-disk state
        is exactly what a hard kill would leave — a possibly-stale
        checkpoint plus fsynced journal entries —
        which is what :func:`~repro.durability.recover` replays.
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
