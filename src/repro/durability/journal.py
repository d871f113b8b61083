"""Append-only batch journal: a write-ahead log of accepted batches.

Checkpoints alone lose everything since the last write; the journal
closes that gap. A batch the incremental pipeline *commits* while no
checkpoint is due is appended as one JSON line and fsynced before the
commit hook returns (a due batch goes into the fsynced checkpoint
instead, see :mod:`~repro.durability.checkpointer`), so after a crash
the state is reconstructible as::

    newest valid checkpoint  +  journaled batches beyond its sequence

replayed through ``process_batch`` — exact, not approximate, by the
λ-multiplicativity of the forgetting model (Eq. 27-29): decaying
straight from the checkpoint clock to each journaled ``at_time``
produces bit-identical statistics to the uninterrupted run (see
DESIGN.md).

File layout (JSON Lines, format version 2)::

    {"format": "repro-journal", "version": 2, "base_sequence": S,
     "base_now": 42.0, "checksum": "sha256:..."}        # header
    {"sequence": S+1, "at_time": 49.0, "terms": ["asian", ...],
     "documents": [{"doc_id": ..., "term_ids": [0, 7], "counts": [2, 1],
                    ...}], "checksum": "sha256:..."}    # one per batch

Each journal stands alone: its first line after a start or a rotation
carries every vocabulary term from id 0, each later line only the terms
added since the line before, and the documents name terms by id into
that list (:mod:`~repro.durability.records`). Replay interns each
line's terms in order before decoding it, which reproduces the live
term ids. Version-1 journals (``"terms": {"word": n}`` per document, no
term list) are still read.

The header ties the journal to the checkpoint whose ``sequence`` is
``S``; each line carries its own checksum (sha256 over its bytes before
the checksum member), so a torn final line — the only corruption an
append-only fsynced writer can leave behind — is detected and
discarded on read.
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
from .atomic import (
    PathLike,
    atomic_write_text,
    fsync_directory,
    text_checksum_matches,
)
from .records import (
    RecordCache,
    array_member,
    check_terms,
    member,
    resolve_record,
    stamped_object,
)

_FORMAT = "repro-journal"
_VERSION = 2
#: The versions :func:`read_journal` reads.
_READABLE = (1, 2)

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
    """One committed batch: its sequence, clock, and document records.

    ``records`` are string-keyed (``"terms": {"word": n}``, in row
    order), what :func:`~repro.corpus.loaders.record_to_document`
    decodes; ``terms`` are the vocabulary terms the line added, in id
    order, to be interned before its records (empty in version 1).
    """

    sequence: int
    at_time: float
    records: Tuple[Mapping[str, Any], ...]
    terms: Tuple[str, ...] = ()


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
    Entries are consumed in order until the first line that is not
    UTF-8 JSON, fails its checksum, is out of sequence, or (version 2)
    names a term id its journal has not carried — everything from there
    on is a torn append and is discarded, with ``truncated`` set.
    """
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    if not lines[0].strip():
        raise JournalError(f"{path}: empty journal (missing header)")
    try:
        head = lines[0].decode("utf-8")
        header = json.loads(head)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    version = header.get("version")
    if type(version) is not int or version not in _READABLE:
        raise JournalError(
            f"{path}: unsupported journal version "
            f"{version!r} (expected one of {_READABLE})"
        )
    unknown = sorted(set(header) - _HEADER_FIELDS)
    if unknown:
        raise JournalError(
            f"{path}: unknown journal header field(s) {unknown}"
        )
    if text_checksum_matches(head, header) is False:
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
    known: List[str] = []
    expected = base_sequence + 1
    truncated = False
    for raw in lines[1:]:
        if raw == b"":
            continue  # the file's trailing newline
        entry = _entry(raw, expected, version, known)
        if entry is None:
            truncated = True
            break
        entries.append(entry)
        known += entry.terms
        expected += 1
    return JournalContents(
        base_sequence=base_sequence,
        base_now=base_now,
        entries=tuple(entries),
        truncated=truncated,
    )


def _entry(
    raw: bytes, sequence: int, version: int, known: List[str]
) -> Optional[JournalEntry]:
    """The intact entry ``sequence`` that ``raw`` holds, or ``None``.

    ``known`` are the terms the journal's earlier lines carried.
    """
    try:
        text = raw.decode("utf-8")
        record = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if (
        not isinstance(record, dict)
        or text_checksum_matches(text, record) is not True
        or not isinstance(record.get("documents"), list)
    ):
        return None
    try:
        if int(record["sequence"]) != sequence:
            return None
        at_time = float(record["at_time"])
        if version == 1:
            return JournalEntry(
                sequence, at_time, tuple(record["documents"])
            )
        terms = check_terms(known + record["terms"])
        return JournalEntry(
            sequence,
            at_time,
            tuple(
                resolve_record(document, terms)
                for document in record["documents"]
            ),
            tuple(terms[len(known):]),
        )
    except (KeyError, TypeError, ValueError):
        return None


class BatchJournal:
    """Fsync-per-batch appender; one instance per run.

    Creating (or :meth:`rotate`-ing) a journal writes its header
    atomically — via temp file + rename, so a crash mid-rotation leaves
    either the complete old journal or the complete new header, never a
    hybrid. The header is made durable by the first :meth:`append`
    after it, not before: until then the journal holds no batch, so a
    power cut that loses the header loses nothing (the checkpoint it
    names holds every acknowledged batch), and a run that checkpoints
    every batch pays no fsync for it. :meth:`append` serializes the
    batch *before* touching the file, writes one line, flushes, and
    fsyncs (the directory too, after a header), so the on-disk journal
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
        # keeps only the last batch's fragments
        self._shared = cache is not None
        self.cache = cache if cache is not None else RecordCache(vocabulary)
        self.sequence = int(base_sequence)
        #: Vocabulary terms the lines since the header have carried.
        self._terms = 0
        self._unsynced = False
        self._handle: Optional[IO[str]] = None
        self._start(self.sequence, base_now)

    def _start(self, base_sequence: int, base_now: Optional[float]) -> None:
        header = stamped_object([
            member("format", _FORMAT),
            member("version", _VERSION),
            member("base_sequence", int(base_sequence)),
            member("base_now", base_now),
        ])
        # not fsynced yet: a header holds no batch, and until a line is
        # appended the checkpoint it names holds every acknowledged one,
        # so a header lost to a power cut loses nothing (the reader
        # then ignores the journal); the first append fsyncs the file,
        # header included, and its directory
        atomic_write_text(header + "\n", self.path, durable=False)
        self._unsynced = self.durable
        self.sequence = int(base_sequence)
        self._terms = 0
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
            terms = len(self.vocabulary)
            line = self._line(documents, at_time, terms)
            try:
                self._handle.write(line)
                self._handle.flush()
                if self.durable:
                    os.fsync(self._handle.fileno())
                if self._unsynced:
                    fsync_directory(self.path.parent)
                    self._unsynced = False
            except BaseException:
                # the file may now hold a torn line; stop appending to it
                self.close()
                raise
        self.sequence += 1
        self._terms = terms
        if self.recorder.enabled:
            self.recorder.counter("durability.journal_batches")
            self.recorder.gauge(
                "durability.journal_sequence", self.sequence
            )
        return self.sequence

    def _line(
        self, documents: Sequence[Document], at_time: float, terms: int
    ) -> str:
        cache = self.cache
        try:
            fragments = (
                cache.fragments(documents, terms) if self._shared
                else cache.retain(documents, terms)
            )
            return stamped_object([
                member("sequence", self.sequence + 1),
                member("at_time", float(at_time)),
                array_member("terms", cache.terms(self._terms, terms)),
                array_member("documents", fragments),
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
