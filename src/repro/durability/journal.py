"""Append-only batch journal: a write-ahead log of accepted batches.

Checkpoints alone lose everything since the last write; the journal
closes that gap. Every batch the incremental pipeline *commits* is
appended as one JSON line and fsynced before the call returns, so after
a crash the state is reconstructible as::

    newest valid checkpoint  +  journaled batches beyond its sequence

replayed through ``process_batch`` — exact, not approximate, by the
λ-multiplicativity of the forgetting model (Eq. 27-29): decaying
straight from the checkpoint clock to each journaled ``at_time``
produces bit-identical statistics to the uninterrupted run (see
DESIGN.md).

File layout (JSON Lines)::

    {"format": "repro-journal", "version": 1, "base_sequence": S,
     "base_now": 42.0, "checksum": "sha256:..."}        # header
    {"sequence": S+1, "at_time": 49.0, "documents": [...],
     "checksum": "sha256:..."}                          # one per batch

The header ties the journal to the checkpoint whose ``sequence`` is
``S``; each entry carries its own checksum, so a torn final line (the
only corruption an append-only fsynced writer can leave behind) is
detected and discarded on read.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import IO, Any, List, Mapping, Optional, Sequence, Tuple, Type

from ..corpus.document import Document
from ..exceptions import JournalError
from ..obs import Recorder, Span, resolve
from ..text.vocabulary import Vocabulary
from .atomic import PathLike, atomic_write_text, checksum_matches
from .records import RecordCache, array_member, member, stamped_object

_FORMAT = "repro-journal"
_VERSION = 1

#: Every field a journal header may carry (see ``read_checkpoint_state``
#: for why an unknown one is rejected).
_HEADER_FIELDS = frozenset(
    {"format", "version", "base_sequence", "base_now", "checksum"}
)


def default_journal_path(checkpoint_path: PathLike) -> Path:
    """The journal maintained alongside a checkpoint file."""
    target = Path(checkpoint_path)
    return target.with_name(target.name + ".journal")


@dataclass(frozen=True)
class JournalEntry:
    """One committed batch: its sequence, clock, and document records."""

    sequence: int
    at_time: float
    records: Tuple[Mapping[str, Any], ...]


@dataclass(frozen=True)
class JournalContents:
    """A parsed journal: header fields plus the intact entry prefix."""

    base_sequence: int
    base_now: Optional[float]
    entries: Tuple[JournalEntry, ...]
    truncated: bool


def read_journal(path: PathLike) -> JournalContents:
    """Parse a journal, tolerating a torn tail.

    The header must be intact (it is written atomically, so a bad
    header means real corruption) and carry no unknown field:
    :class:`JournalError` otherwise.
    Entries are consumed in order until the first unparsable,
    checksum-failing, or out-of-sequence line — everything from there
    on is a torn append and is discarded, with ``truncated`` set.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if not lines or not lines[0].strip():
        raise JournalError(f"{path}: empty journal (missing header)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise JournalError(
            f"{path}: invalid journal header: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise JournalError(f"{path}: journal header is not a JSON object")
    if header.get("format") != _FORMAT:
        raise JournalError(
            f"{path}: not a repro journal "
            f"(format={header.get('format')!r})"
        )
    if header.get("version") != _VERSION:
        raise JournalError(
            f"{path}: unsupported journal version "
            f"{header.get('version')!r} (expected {_VERSION})"
        )
    unknown = sorted(set(header) - _HEADER_FIELDS)
    if unknown:
        raise JournalError(
            f"{path}: unknown journal header field(s) {unknown}"
        )
    if checksum_matches(header) is False:
        raise JournalError(f"{path}: journal header checksum mismatch")
    try:
        base_sequence = int(header["base_sequence"])
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(
            f"{path}: malformed journal header ({exc!r})"
        ) from exc
    raw_now = header.get("base_now")
    base_now = float(raw_now) if raw_now is not None else None

    entries: List[JournalEntry] = []
    truncated = False
    expected = base_sequence + 1
    for raw in lines[1:]:
        if raw == "":
            continue  # the file's trailing newline
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            truncated = True
            break
        if (
            not isinstance(record, dict)
            or checksum_matches(record) is not True
            or not isinstance(record.get("documents"), list)
        ):
            truncated = True
            break
        try:
            sequence = int(record["sequence"])
            at_time = float(record["at_time"])
        except (KeyError, TypeError, ValueError):
            truncated = True
            break
        if sequence != expected:
            truncated = True
            break
        entries.append(JournalEntry(
            sequence=sequence,
            at_time=at_time,
            records=tuple(record["documents"]),
        ))
        expected += 1
    return JournalContents(
        base_sequence=base_sequence,
        base_now=base_now,
        entries=tuple(entries),
        truncated=truncated,
    )


class BatchJournal:
    """Fsync-per-batch appender; one instance per run.

    Creating (or :meth:`rotate`-ing) a journal writes its header
    atomically — via temp file + rename, so a crash mid-rotation leaves
    either the complete old journal or the complete new header, never a
    hybrid. :meth:`append` serializes the batch *before* touching the
    file, writes one line, flushes, and fsyncs, so the on-disk journal
    only ever grows by whole, checksummed records (modulo a torn final
    line, which :func:`read_journal` discards).
    """

    def __init__(
        self,
        path: PathLike,
        vocabulary: Vocabulary,
        base_sequence: int = 0,
        base_now: Optional[float] = None,
        durable: bool = True,
        recorder: Optional[Recorder] = None,
        cache: Optional[RecordCache] = None,
    ) -> None:
        self.path = Path(path)
        self.vocabulary = vocabulary
        self.durable = durable
        self.recorder = resolve(recorder)
        # shared with the owning Checkpointer, whose checkpoints reuse
        # (and prune) the fragments encoded here; a journal of its own
        # encodes each batch afresh, so nothing accumulates
        self.cache = cache
        self.sequence = int(base_sequence)
        self._handle: Optional[IO[str]] = None
        self._start(self.sequence, base_now)

    def _start(self, base_sequence: int, base_now: Optional[float]) -> None:
        header = stamped_object([
            member("format", _FORMAT),
            member("version", _VERSION),
            member("base_sequence", int(base_sequence)),
            member("base_now", base_now),
        ])
        atomic_write_text(header + "\n", self.path, durable=self.durable)
        self.sequence = int(base_sequence)
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, documents: Sequence[Document], at_time: float) -> int:
        """Journal one committed batch; returns its sequence number.

        The record is fully serialized (and checksummed) before any
        byte reaches the file. A failed write or fsync closes the
        journal — the on-disk tail may be torn, which the reader
        tolerates — and re-raises.
        """
        if self._handle is None:
            raise JournalError(f"{self.path}: journal is closed")
        with Span(self.recorder, "journal.append",
                  {"docs": len(documents)}):
            line = self._line(documents, at_time)
            try:
                self._handle.write(line)
                self._handle.flush()
                if self.durable:
                    os.fsync(self._handle.fileno())
            except BaseException:
                # the file may now hold a torn line; stop appending to it
                self.close()
                raise
        self.sequence += 1
        if self.recorder.enabled:
            self.recorder.counter("durability.journal_batches")
            self.recorder.gauge(
                "durability.journal_sequence", self.sequence
            )
        return self.sequence

    def _line(self, documents: Sequence[Document], at_time: float) -> str:
        cache = self.cache
        if cache is None:
            cache = RecordCache(self.vocabulary)
        try:
            return stamped_object([
                member("sequence", self.sequence + 1),
                member("at_time", float(at_time)),
                array_member("documents", *cache.fragments(documents)),
            ]) + "\n"
        except Exception as exc:
            raise JournalError(
                f"{self.path}: cannot journal batch "
                f"{self.sequence + 1}: {exc}"
            ) from exc

    def rotate(
        self, base_sequence: int, base_now: Optional[float]
    ) -> None:
        """Reset the journal under a new base checkpoint.

        Called right *after* a checkpoint at ``base_sequence`` lands on
        disk: the journaled batches it absorbed are obsolete, so the
        file is restarted with a fresh header (atomically — see class
        docstring).
        """
        with Span(self.recorder, "journal.rotate"):
            self.close()
            self._start(base_sequence, base_now)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None

    def __enter__(self) -> "BatchJournal":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self.close()
        return False
