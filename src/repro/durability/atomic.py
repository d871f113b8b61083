"""Atomic durable file writes and payload checksums.

The primitives every durable artifact in this package is built on:

* :func:`atomic_write_pieces` — stream the content into a sibling temp
  file, flush + ``fsync``, then ``os.replace`` over the target (atomic
  on POSIX and Windows), with an optional rotation of the previous file
  to ``<path>.bak`` and a directory fsync so the rename itself is
  durable. A crash, a full disk, or a serialization error at any point
  leaves the previous file byte-identical.
* :func:`stamp_pieces` / :func:`text_checksum_matches` — the checksum
  of a checkpoint, a journal header or a journal line: sha256 over the
  written bytes that come before the trailing ``, "checksum": ...``
  member. The writer hashes the text it is about to write, with no
  second encoding, and the reader hashes the bytes it read, so any torn
  or bit-flipped state is detected on load. A file without a
  ``checksum`` member loads unverified: the documented way to force a
  load after a hand edit.

``repro.persistence`` routes checkpoint writes through this module;
reprolint's REP006 rule forbids checkpoint/journal writes that bypass
it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, List, Mapping, Optional, Sequence, Union

from ..exceptions import CheckpointError

PathLike = Union[str, Path]

#: Field carrying the payload checksum in checkpoints/journal lines.
CHECKSUM_FIELD = "checksum"

#: Suffix of the rotated previous checkpoint.
BACKUP_SUFFIX = ".bak"


#: ``json.dumps(value, ensure_ascii=False)``: the layout of the bytes
#: written, with a prebuilt encoder for per-document use.
PLAIN_ENCODER = json.JSONEncoder(ensure_ascii=False)


def text_checksum(text: str) -> str:
    """``"sha256:<hex>"`` over the UTF-8 bytes of ``text``."""
    return f"sha256:{hashlib.sha256(text.encode('utf-8')).hexdigest()}"


def stamp_pieces(pieces: List[bytes]) -> List[bytes]:
    """Close the JSON object text that ``pieces`` hold end to end —
    every byte of it but the final ``}``, UTF-8 — with a ``checksum``
    member, sha256 over those bytes: ``pieces`` with the member
    appended. The text is never joined, so a large file costs no
    allocation its size."""
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    pieces.append(
        f', "{CHECKSUM_FIELD}": "sha256:{digest.hexdigest()}"}}'
        .encode("utf-8")
    )
    return pieces


def text_checksum_matches(
    text: str, payload: Mapping[str, Any]
) -> Optional[bool]:
    """Verify the checksum of ``payload``, parsed from ``text``.

    ``None`` when ``payload`` carries no checksum. Otherwise ``True``
    when ``text`` ends with its checksum member and that checksum is
    sha256 over the text before it (what :func:`stamp_pieces` writes);
    ``False`` else.
    """
    recorded = payload.get(CHECKSUM_FIELD)
    if recorded is None:
        return None
    tail = f', "{CHECKSUM_FIELD}": {PLAIN_ENCODER.encode(recorded)}' + "}"
    return text.endswith(tail) and (
        text_checksum(text[:-len(tail)]) == recorded
    )


def backup_path(path: PathLike) -> Path:
    """Where the previous generation of ``path`` is rotated to."""
    target = Path(path)
    return target.with_name(target.name + BACKUP_SUFFIX)


def fsync_directory(directory: PathLike) -> None:
    """fsync a directory so a completed rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem without dir fsync
        pass
    finally:
        os.close(fd)


def atomic_write_pieces(
    pieces: Sequence[bytes],
    path: PathLike,
    durable: bool = True,
    backup: bool = False,
) -> int:
    """Write the bytes ``pieces`` hold end to end to ``path``
    atomically, without joining them; returns bytes written.

    The content goes into a temp file in the *same directory* (so the
    final ``os.replace`` never crosses a filesystem), is flushed and —
    with ``durable`` — fsynced before the rename, and the directory
    after it. With ``backup`` the previous target survives one rotation
    as ``<path>.bak``; the rotation is itself an atomic rename, so at
    every instant at least one intact generation exists on disk.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(pieces)
            handle.flush()
            if durable:
                os.fsync(handle.fileno())
        if backup and target.exists():
            os.replace(target, backup_path(target))
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if durable:
        fsync_directory(target.parent)
    return sum(map(len, pieces))


def prepare_checkpoint_path(path: PathLike) -> Path:
    """Validate (and create) a checkpoint destination *before* a run.

    Creates missing parent directories and rejects a path that is an
    existing directory, so ``repro cluster --checkpoint`` fails before
    the first batch is processed instead of after the entire run.
    """
    target = Path(path)
    if target.is_dir():
        raise CheckpointError(
            f"{target}: checkpoint path is a directory"
        )
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # e.g. a parent component is a regular file, or no permission
        raise CheckpointError(
            f"{target}: cannot create checkpoint directory "
            f"{target.parent}: {exc}"
        ) from exc
    return target
