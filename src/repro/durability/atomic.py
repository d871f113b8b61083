"""Atomic durable file writes and payload checksums.

The primitives every durable artifact in this package is built on:

* :func:`atomic_write_text` / :func:`atomic_write_json` — stream the
  content into a sibling temp file, flush + ``fsync``, then
  ``os.replace`` over the target (atomic on POSIX and Windows), with an
  optional rotation of the previous file to ``<path>.bak`` and a
  directory fsync so the rename itself is durable. A crash, a full
  disk, or a serialization error at any point leaves the previous file
  byte-identical.
* :func:`payload_checksum` / :func:`checksum_matches` — sha256 over the
  *canonical* JSON (sorted keys, compact separators) of a payload minus
  its ``checksum`` field. Because JSON floats round-trip exactly
  through Python's shortest-repr serialization, the checksum recomputed
  from a parsed file equals the one computed before writing, so any
  torn or bit-flipped state is detected on load.

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
from typing import Any, Iterable, Mapping, Optional, Union

from ..exceptions import CheckpointError

PathLike = Union[str, Path]

#: Field carrying the payload checksum in checkpoints/journal lines.
CHECKSUM_FIELD = "checksum"

#: Suffix of the rotated previous checkpoint.
BACKUP_SUFFIX = ".bak"


#: ``json.dumps(value, ensure_ascii=False)``: the layout of the bytes
#: written, with a prebuilt encoder for per-document use.
PLAIN_ENCODER = json.JSONEncoder(ensure_ascii=False)

#: ``canonical_json``'s encoder: sorted keys, compact separators.
CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(",", ":"),
)


def canonical_json(payload: Mapping[str, Any]) -> str:
    """The deterministic JSON serialization checksums are taken over."""
    return CANONICAL_ENCODER.encode(payload)


def chunks_checksum(chunks: Iterable[str]) -> str:
    """``"sha256:<hex>"`` over a canonical JSON text given in pieces."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
    return f"sha256:{digest.hexdigest()}"


def payload_checksum(payload: Mapping[str, Any]) -> str:
    """``"sha256:<hex>"`` over the payload minus its checksum field."""
    body = {
        key: value for key, value in payload.items()
        if key != CHECKSUM_FIELD
    }
    return chunks_checksum((canonical_json(body),))


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
