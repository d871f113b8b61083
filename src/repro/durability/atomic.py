"""Atomic durable file writes and payload checksums.

The primitives every durable artifact in this package is built on:

* :func:`atomic_write_text` / :func:`atomic_write_json` — stream the
  content into a sibling temp file, flush + ``fsync``, then
  ``os.replace`` over the target (atomic on POSIX and Windows), with an
  optional rotation of the previous file to ``<path>.bak`` and a
  directory fsync so the rename itself is durable. A crash, a full
  disk, or a serialization error at any point leaves the previous file
  byte-identical.
* :func:`stamp` / :func:`text_checksum_matches` — the checksum of a
  checkpoint or journal line (format version 2): sha256 over the
  written bytes that come before the trailing ``, "checksum": ...``
  member. The writer hashes the text it is about to write, with no
  second encoding, and the reader hashes the bytes it read.
* :func:`payload_checksum` / :func:`checksum_matches` — the checksum of
  format version 1 and of :func:`atomic_write_json`: sha256 over the
  *canonical* JSON (sorted keys, compact separators) of a payload minus
  its ``checksum`` field. Because JSON floats round-trip exactly
  through Python's shortest-repr serialization, the checksum recomputed
  from a parsed file equals the one computed before writing. The
  reader accepts it where the byte form does not match, so version-1
  files and tool-stamped rewrites still verify.

Either way, any torn or bit-flipped state is detected on load.

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
from typing import Any, Mapping, Optional, Union

from ..exceptions import CheckpointError

PathLike = Union[str, Path]

#: Field carrying the payload checksum in checkpoints/journal lines.
CHECKSUM_FIELD = "checksum"

#: Suffix of the rotated previous checkpoint.
BACKUP_SUFFIX = ".bak"


#: ``json.dumps(value, ensure_ascii=False)``: the layout of the bytes
#: written, with a prebuilt encoder for per-document use.
PLAIN_ENCODER = json.JSONEncoder(ensure_ascii=False)

def canonical_json(payload: Mapping[str, Any]) -> str:
    """The deterministic JSON serialization (sorted keys, compact
    separators) version-1 checksums are taken over."""
    return json.dumps(
        payload, sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )


def text_checksum(text: str) -> str:
    """``"sha256:<hex>"`` over the UTF-8 bytes of ``text``."""
    return f"sha256:{hashlib.sha256(text.encode('utf-8')).hexdigest()}"


def stamp(body: str) -> str:
    """Close the JSON object text ``body`` — every byte of it but the
    final ``}`` — with a ``checksum`` member: sha256 over ``body``."""
    return (
        f'{body}, "{CHECKSUM_FIELD}": "{text_checksum(body)}"' + "}"
    )


def text_checksum_matches(
    text: str, payload: Mapping[str, Any]
) -> Optional[bool]:
    """Verify the checksum of ``payload``, parsed from ``text``.

    ``None`` when ``payload`` carries no checksum. Otherwise ``True``
    when ``text`` ends with its checksum member and that checksum is
    sha256 over the text before it (what :func:`stamp` writes), or when
    it is the canonical checksum of the payload (:func:`checksum_matches`:
    version-1 files, :func:`atomic_write_json`); ``False`` else.
    """
    recorded = payload.get(CHECKSUM_FIELD)
    if recorded is None:
        return None
    tail = f', "{CHECKSUM_FIELD}": {PLAIN_ENCODER.encode(recorded)}' + "}"
    if text.endswith(tail) and (
        text_checksum(text[:-len(tail)]) == recorded
    ):
        return True
    return checksum_matches(payload)


def payload_checksum(payload: Mapping[str, Any]) -> str:
    """``"sha256:<hex>"`` over the payload minus its checksum field."""
    body = {
        key: value for key, value in payload.items()
        if key != CHECKSUM_FIELD
    }
    return text_checksum(canonical_json(body))


def checksum_matches(payload: Mapping[str, Any]) -> Optional[bool]:
    """Verify a payload's recorded checksum.

    Returns ``True``/``False`` when a checksum field is present, and
    ``None`` when the payload carries none (legacy files written before
    checksums existed are accepted by callers).
    """
    recorded = payload.get(CHECKSUM_FIELD)
    if recorded is None:
        return None
    return bool(recorded == payload_checksum(payload))


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


def atomic_write_text(
    text: str,
    path: PathLike,
    durable: bool = True,
    backup: bool = False,
) -> int:
    """Write ``text`` to ``path`` atomically; returns bytes written.

    The content goes into a temp file in the *same directory* (so the
    final ``os.replace`` never crosses a filesystem), is flushed and —
    with ``durable`` — fsynced before the rename. With ``backup`` the
    previous target survives one rotation as ``<path>.bak``; the
    rotation is itself an atomic rename, so at every instant at least
    one intact generation exists on disk.
    """
    target = Path(path)
    payload = text.encode("utf-8")
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
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
    return len(payload)


def atomic_write_json(
    payload: Mapping[str, Any],
    path: PathLike,
    durable: bool = True,
    backup: bool = False,
    add_checksum: bool = False,
) -> int:
    """Atomically write ``payload`` as JSON; returns bytes written.

    With ``add_checksum`` a ``checksum`` field (sha256 over the
    canonical form of the rest) is stamped into the object so loaders
    can detect torn or corrupted files.
    """
    body: Mapping[str, Any] = payload
    if add_checksum:
        stamped = dict(payload)
        stamped[CHECKSUM_FIELD] = payload_checksum(payload)
        body = stamped
    return atomic_write_text(
        json.dumps(body, ensure_ascii=False), path,
        durable=durable, backup=backup,
    )


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
