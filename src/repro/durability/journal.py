"""The append-only batch log: one line per committed batch.

A checkpoint is a *base*; the log beside it (``<checkpoint>.journal``)
holds every committed batch since. A batch the incremental pipeline
commits is appended as one JSON line and fsynced before the commit hook
returns, unless the :class:`~repro.durability.checkpointer.Checkpointer`
compacts instead (rewrites the base, which then holds the batch, and
restarts the log). After a crash the state is::

    newest valid base  +  logged batches beyond its sequence

A version-3 line records the batch's documents, the terms they added,
its clock and the assignment after its fit, so recovery re-applies it
with no K-means (:meth:`~repro.core.incremental.IncrementalClusterer.
restore_batch`): by the λ-multiplicativity of the forgetting model
(Eq. 27-29) observing the batch at its ``at_time`` from the restored
clock gives the statistics of the uninterrupted run, and the assignment
is the one the run computed (see DESIGN.md).

File layout (JSON Lines, format version 3)::

    {"format": "repro-journal", "version": 3, "base_sequence": S,
     "checksum": "sha256:..."}                          # header
    {"sequence": S+1, "at_time": 49.0, "terms": ["asian", ...],
     "documents": [{"doc_id": ..., "row": "AQAAAAcA...", ...}],
     "assignment": "AAAAAP////8BAAAA...", "checksum": "sha256:..."}

Each log stands alone: its first line after a start or a compaction
carries every vocabulary term from id 0, each later line only the terms
added since the line before, and the documents name terms by id into
that list (:mod:`~repro.durability.records`, which also defines the
``row`` and ``assignment`` encodings). Replay interns each line's terms
in order before decoding it, which reproduces the live term ids.
Version 3 is the only version read: a version-1 or -2 journal is a
:class:`~repro.exceptions.JournalError`, and recovery then treats it as
absent (its base checkpoint was written before the log restarted, so
it holds every batch such a journal could add).

The header ties the log to the checkpoint whose ``sequence`` is ``S``.
Headers written before this layout also carry ``base_now``, the base's
clock; nothing uses it, but it is still read and must be a number or
``null``. Each line carries its own checksum (sha256 over its bytes
before the checksum member), so a torn final line — the only
corruption an append-only fsynced writer can leave behind — is
detected and discarded on read.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import (
    IO,
    Any,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..corpus.document import Document
from ..exceptions import JournalError
from ..obs import Recorder, Span, resolve
from .atomic import (
    PathLike,
    atomic_write_pieces,
    fsync_directory,
    text_checksum_matches,
)
from .records import (
    RecordCache,
    array_member,
    check_terms,
    member,
    resolve_record,
    stamped_pieces,
    unpack,
    version_error,
)

_FORMAT = "repro-journal"
_VERSION = 3

#: Every field a journal header may carry (see ``read_checkpoint_state``
#: for why an unknown one is rejected); older headers carry ``base_now``.
_HEADER_FIELDS = frozenset(
    {"format", "version", "base_sequence", "base_now", "checksum"}
)


def default_journal_path(checkpoint_path: PathLike) -> Path:
    """The journal maintained alongside a checkpoint file."""
    target = Path(checkpoint_path)
    return target.with_name(target.name + ".journal")


@dataclass(frozen=True)
class JournalEntry:
    """One committed batch: its sequence, clock, document records, new
    terms and assignment.

    ``records`` are string-keyed (``"terms": {"word": n}``, in row
    order), what :func:`~repro.corpus.loaders.record_to_document`
    decodes; ``terms`` are the vocabulary terms the line added, in id
    order, to be interned before its records. ``assignment`` is the
    recorded assignment after the batch's fit, one cluster id per
    active document (see
    :meth:`~repro.core.incremental.IncrementalClusterer.restore_batch`).
    """

    sequence: int
    at_time: float
    records: Tuple[Mapping[str, Any], ...]
    terms: Tuple[str, ...]
    assignment: List[int]


class EncodedLine(NamedTuple):
    """A composed log line and the vocabulary size it was composed at."""

    data: bytes
    terms: int


@dataclass(frozen=True)
class JournalContents:
    """A parsed journal: header fields plus the intact entry prefix."""

    base_sequence: int
    entries: Tuple[JournalEntry, ...]
    truncated: bool


def read_journal(path: PathLike) -> JournalContents:
    """Parse a journal, tolerating a torn tail.

    The header must be intact (it is written atomically, so a bad
    header means real corruption), of version 3 and carry no unknown
    field: :class:`JournalError` otherwise (for a version-1 or -2
    journal, with the migration).
    Entries are consumed in order until the first line that is not
    UTF-8 JSON, fails its checksum, is out of sequence, holds a row
    :func:`~repro.durability.records.resolve_record` refuses (such as a
    term id its journal has not carried), or lacks an assignment or
    holds one that is not packed int32: everything from there on is a
    torn append and is discarded, with ``truncated`` set.
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
    if type(version) is not int or version != _VERSION:
        raise JournalError(version_error(path, "journal", version))
    unknown = sorted(set(header) - _HEADER_FIELDS)
    if unknown:
        raise JournalError(
            f"{path}: unknown journal header field(s) {unknown}"
        )
    if text_checksum_matches(head, header) is False:
        raise JournalError(f"{path}: journal header checksum mismatch")
    try:
        base_sequence = int(header["base_sequence"])
        base_now = header.get("base_now")
        if base_now is not None:
            float(base_now)  # an older header's: checked, not used
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(
            f"{path}: malformed journal header ({exc!r})"
        ) from exc

    entries: List[JournalEntry] = []
    known: List[str] = []
    expected = base_sequence + 1
    truncated = False
    for raw in lines[1:]:
        if raw == b"":
            continue  # the file's trailing newline
        entry = _entry(raw, expected, known)
        if entry is None:
            truncated = True
            break
        entries.append(entry)
        known += entry.terms
        expected += 1
    return JournalContents(
        base_sequence=base_sequence,
        entries=tuple(entries),
        truncated=truncated,
    )


def _entry(
    raw: bytes, sequence: int, known: List[str]
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
        terms = check_terms(known + record["terms"])
        # a line without its assignment is not one the writer wrote: a
        # torn or edited tail
        assignment = unpack(record["assignment"], 1)[0]
        return JournalEntry(
            sequence,
            at_time,
            tuple(
                resolve_record(document, terms)
                for document in record["documents"]
            ),
            tuple(terms[len(known):]),
            assignment,
        )
    except (KeyError, TypeError, ValueError):
        return None


class BatchJournal:
    """Fsync-per-batch appender; one instance per run.

    Creating (or :meth:`rotate`-ing) a log writes its header
    atomically — via temp file + rename, so a crash mid-rotation leaves
    either the complete old log or the complete new header, never a
    hybrid. The header is made durable by the first :meth:`write`
    after it, not before: until then the log holds no batch, so a
    power cut that loses the header loses nothing (the checkpoint it
    names holds every acknowledged batch), and a compaction pays no
    fsync for it. :meth:`encode` serializes a batch *before* anything
    touches the file; :meth:`write` appends the line, flushes, and
    fsyncs (the directory too, after a header), so the on-disk log only
    ever grows by whole, checksummed records (modulo a torn final line,
    which :func:`read_journal` discards). :attr:`size` is the file's
    length, which the checkpointer's size rule compares with its base.

    ``cache`` is the owning
    :class:`~repro.durability.checkpointer.Checkpointer`'s: the lines
    add each batch's fragments to it, its checkpoints reuse them, and
    the checkpointer prunes it to the active set.
    """

    def __init__(
        self,
        path: PathLike,
        cache: RecordCache,
        base_sequence: int = 0,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.path = Path(path)
        self.cache = cache
        self.recorder = resolve(recorder)
        self.sequence = int(base_sequence)
        #: Bytes in the file: the header and the lines written since.
        self.size = 0
        #: Vocabulary terms the lines since the header have carried.
        self._terms = 0
        self._unsynced = False
        self._handle: Optional[IO[bytes]] = None
        self._start(self.sequence)

    def _start(self, base_sequence: int) -> None:
        header = stamped_pieces([
            member("format", _FORMAT),
            member("version", _VERSION),
            member("base_sequence", int(base_sequence)),
        ]) + [b"\n"]
        # not fsynced yet: a header holds no batch, and until a line is
        # appended the checkpoint it names holds every acknowledged one,
        # so a header lost to a power cut loses nothing (the reader
        # then ignores the journal); the first write fsyncs the file,
        # header included, and its directory
        self.size = atomic_write_pieces(header, self.path, durable=False)
        self._unsynced = True
        self.sequence = int(base_sequence)
        self._terms = 0
        self._handle = open(self.path, "ab")

    def encode(
        self, documents: Sequence[Document], at_time: float, assignment: str
    ) -> EncodedLine:
        """The line that journals ``documents`` as the next batch, with
        ``assignment`` (:func:`~repro.durability.records.assignment_text`
        of the state after the batch). Nothing is written."""
        if self._handle is None:
            raise JournalError(f"{self.path}: journal is closed")
        cache = self.cache
        terms = len(cache.vocabulary)
        with Span(self.recorder, "journal.encode",
                  {"docs": len(documents)}):
            try:
                members = [
                    member("sequence", self.sequence + 1),
                    member("at_time", float(at_time)),
                    array_member("terms", cache.terms(self._terms, terms)),
                    array_member(
                        "documents", cache.fragments(documents, terms)
                    ),
                    member("assignment", assignment),
                ]
                data = b"".join(stamped_pieces(members) + [b"\n"])
            except Exception as exc:
                raise JournalError(
                    f"{self.path}: cannot journal batch "
                    f"{self.sequence + 1}: {exc}"
                ) from exc
        return EncodedLine(data, terms)

    def write(self, line: EncodedLine) -> int:
        """Append ``line`` (the last :meth:`encode`) and fsync; returns
        its sequence number.

        A failed write or fsync closes the journal — the on-disk tail
        may be torn, which the reader tolerates — and re-raises.
        """
        if self._handle is None:
            raise JournalError(f"{self.path}: journal is closed")
        with Span(self.recorder, "journal.append",
                  {"bytes": len(line.data)}):
            try:
                self._handle.write(line.data)
                self._handle.flush()
                os.fsync(self._handle.fileno())
                if self._unsynced:
                    fsync_directory(self.path.parent)
                    self._unsynced = False
            except BaseException:
                # the file may now hold a torn line; stop appending to it
                self.close()
                raise
        self.sequence += 1
        self.size += len(line.data)
        self._terms = line.terms
        if self.recorder.enabled:
            self.recorder.counter("durability.journal_batches")
            self.recorder.gauge(
                "durability.journal_sequence", self.sequence
            )
        return self.sequence

    def rotate(self, base_sequence: int) -> None:
        """Restart the log under a new base checkpoint.

        Called right *after* a checkpoint at ``base_sequence`` lands on
        disk: the logged batches it absorbed are obsolete, so the file
        is restarted with a fresh header (atomically — see class
        docstring).
        """
        with Span(self.recorder, "journal.rotate"):
            self.close()
            self._start(base_sequence)

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
