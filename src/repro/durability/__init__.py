"""repro.durability — crash-safe persistence for the on-line clusterer.

The paper's clusterer is *long-lived*: its statistics are the product
of every batch since day one (Eq. 27-29), so losing them to a crash is
losing the model. This package makes process death a non-event:

* :mod:`~repro.durability.atomic` — the one writer, temp-file + fsync +
  ``os.replace`` with ``.bak`` rotation, and sha256 checksums over the
  written bytes; no crash leaves a corrupt or truncated checkpoint.
* :mod:`~repro.durability.records` — format version 3: each active
  document's record, its row packed as base64 int32, encoded once for
  its lifetime; the term strings, encoded once; the recorded assignment;
  the composition of both files from them; and the reader's check of
  every row.
* :mod:`~repro.durability.journal` — the append-only, fsync-per-batch
  JSONL log of the batches committed since the base checkpoint: each
  line holds a batch's documents, new terms, clock and post-fit
  assignment, and is tied to its base by a sequence number.
* :mod:`~repro.durability.checkpointer` — registered as a commit hook,
  it logs every committed batch and rewrites the base when a line would
  make the log larger than the base, its one compaction rule.
* :mod:`~repro.durability.recovery` — :func:`recover`: newest valid
  checkpoint (falling back to ``.bak``) plus its log, re-applied
  without K-means.

Quickstart::

    from repro.durability import Checkpointer, recover

    checkpointer = Checkpointer(clusterer, vocabulary, "state.json")
    clusterer.add_commit_hook(checkpointer.record_batch)
    ...                      # process batches; crash whenever
    restored = recover("state.json")   # a batch prefix, no re-fit
"""

from .atomic import (
    BACKUP_SUFFIX,
    CHECKSUM_FIELD,
    backup_path,
    prepare_checkpoint_path,
)
from .checkpointer import Checkpointer
from .journal import (
    BatchJournal,
    JournalContents,
    JournalEntry,
    default_journal_path,
    read_journal,
)
from .recovery import RecoveryResult, recover

__all__ = [
    "BACKUP_SUFFIX",
    "CHECKSUM_FIELD",
    "backup_path",
    "prepare_checkpoint_path",
    "BatchJournal",
    "JournalContents",
    "JournalEntry",
    "default_journal_path",
    "read_journal",
    "Checkpointer",
    "RecoveryResult",
    "recover",
]
