"""repro.durability — crash-safe persistence for the on-line clusterer.

The paper's clusterer is *long-lived*: its statistics are the product
of every batch since day one (Eq. 27-29), so losing them to a crash is
losing the model. This package makes process death a non-event:

* :mod:`~repro.durability.atomic` — temp-file + fsync + ``os.replace``
  writes with ``.bak`` rotation, and sha256 checksums over the written
  bytes; no crash leaves a corrupt or truncated checkpoint.
* :mod:`~repro.durability.records` — format version 2: each active
  document's record, in term ids and encoded once for its lifetime,
  the term strings, encoded once, and the composition of both files
  from them; and the reader's check of every id.
* :mod:`~repro.durability.journal` — an append-only, fsync-per-batch
  JSONL write-ahead log of the accepted batches no due checkpoint
  holds, tied to its base checkpoint by a sequence number.
* :mod:`~repro.durability.checkpointer` — periodic checkpoints during a
  run (``repro cluster --checkpoint-every N``); registered as a commit
  hook so only committed batches are ever written.
* :mod:`~repro.durability.recovery` — :func:`recover`: newest valid
  checkpoint (falling back to ``.bak``) + exact journal replay.

Quickstart::

    from repro.durability import Checkpointer, recover

    checkpointer = Checkpointer(clusterer, vocabulary, "state.json")
    clusterer.add_commit_hook(checkpointer.record_batch)
    ...                      # process batches; crash whenever
    restored = recover("state.json")   # bit-equal to a batch prefix
"""

from .atomic import (
    BACKUP_SUFFIX,
    CHECKSUM_FIELD,
    atomic_write_json,
    atomic_write_text,
    backup_path,
    canonical_json,
    checksum_matches,
    payload_checksum,
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
    "atomic_write_json",
    "atomic_write_text",
    "backup_path",
    "canonical_json",
    "checksum_matches",
    "payload_checksum",
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
