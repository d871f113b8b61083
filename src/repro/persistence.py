"""Checkpoint/restore for the on-line clustering pipeline.

A deployed stream clusterer must survive restarts. The checkpoint
format exploits the forgetting model's exactness: since every weight is
``dw = λ^(now - T)``, persisting the model parameters, the clock, the
active documents and the current assignment is *sufficient* — restoring
rebuilds statistics bit-equivalent to the live ones (the same guarantee
the incremental-equals-from-scratch property tests establish).

Format: a single JSON document, versioned::

    {"format": "repro-checkpoint", "version": 1,
     "model": {"half_life": 7.0, "life_span": 14.0},
     "kmeans": {"k": 24, "delta": 0.01, ...},
     "now": 42.0, "warm_start": true, "statistics_backend": "columnar",
     "sequence": 6, "checksum": "sha256:...",
     "documents": [{"doc_id": ..., "timestamp": ..., "topic_id": ...,
                    "source": ..., "title": ..., "terms": {"word": n}}],
     "assignment": {"doc_id": cluster_id, ...}}

Term counts are keyed by term *string* so checkpoints are portable
across vocabularies, exactly like :mod:`repro.corpus.loaders`.

Durability: :func:`save_checkpoint` composes the JSON from fragments
encoded once per document (:mod:`repro.durability.records`) and goes
through :mod:`repro.durability.atomic` — the text is written into a
sibling temp file, fsynced, and renamed over the target, with the
previous checkpoint rotated to ``<path>.bak`` — so no crash or
serialization error ever leaves a corrupt or truncated state file.
The ``checksum`` field (sha256 over the canonical JSON of everything
else) is verified on load; ``sequence`` counts the batches the state
reflects and ties the checkpoint to its batch journal (see
:mod:`repro.durability`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from .core.incremental import IncrementalClusterer
from .corpus.document import Document
from .corpus.loaders import record_terms, record_to_document
from .exceptions import CheckpointError
from .forgetting.model import ForgettingModel
from .obs import Recorder, Span, resolve
from .text.vocabulary import Vocabulary

if TYPE_CHECKING:
    from .durability.records import RecordCache

PathLike = Union[str, Path]

_FORMAT = "repro-checkpoint"
_VERSION = 1

#: Every top-level field a checkpoint may carry. Anything else — a
#: ``checksum`` key with a flipped bit, say — is corruption, not a file
#: without a checksum.
_FIELDS = frozenset({
    "format", "version", "model", "kmeans", "warm_start",
    "statistics_backend", "now", "documents", "assignment", "sequence",
    "checksum",
})


def document_record(
    doc: Document, vocabulary: Vocabulary
) -> Dict[str, Any]:
    """Serialize one document with terms keyed by string.

    The shared record shape of checkpoints and batch journals. Raises
    :class:`CheckpointError` naming the document when it holds a term
    id the vocabulary does not know (previously a bare ``IndexError``
    out of ``vocabulary.term``).
    """
    try:
        terms = record_terms(doc, vocabulary)
    except ValueError as exc:
        raise CheckpointError(
            f"{exc}; was the wrong vocabulary passed?"
        ) from None
    return {
        "doc_id": doc.doc_id,
        "timestamp": doc.timestamp,
        "topic_id": doc.topic_id,
        "source": doc.source,
        "title": doc.title,
        "terms": terms,
    }


def save_checkpoint(
    clusterer: IncrementalClusterer,
    vocabulary: Vocabulary,
    path: PathLike,
    sequence: Optional[int] = None,
    *,
    cache: Optional["RecordCache"] = None,
    recorder: Optional[Recorder] = None,
) -> None:
    """Write ``clusterer``'s full state to ``path`` as JSON, atomically.

    ``vocabulary`` must be the vocabulary the clusterer's documents
    were ingested with (usually ``repository.vocabulary``).
    ``sequence`` (used by :class:`repro.durability.Checkpointer`)
    records how many batches the state reflects, pairing the checkpoint
    with its journal. The write never touches the previous checkpoint
    until the new one is fully on disk; the old file survives one
    rotation as ``<path>.bak``.

    The documents come from ``cache``'s per-document fragments (see
    :mod:`repro.durability.records`), which is then rebuilt from the
    active set; without one, a throwaway cache encodes them all.
    ``checkpoint.save`` (covering the serialisation too) and
    ``checkpoint.bytes`` go to ``recorder``, else the ambient one.
    """
    # imported late: repro.durability builds on this module, so the
    # low-level writer cannot be a top-level import without a cycle
    from .durability.atomic import atomic_write_text
    from .durability.records import RecordCache

    if cache is None:
        cache = RecordCache(vocabulary)
    elif cache.vocabulary is not vocabulary:
        raise CheckpointError(
            "the record cache was built over another vocabulary"
        )
    recorder = resolve(recorder)
    documents = clusterer.statistics.documents()
    with Span(recorder, "checkpoint.save", {"docs": len(documents)}):
        written = atomic_write_text(
            _checkpoint_text(clusterer, documents, cache, sequence),
            path, durable=True, backup=True,
        )
    if recorder.enabled:
        recorder.counter("checkpoint.saves")
        recorder.gauge("checkpoint.bytes", written)


def _checkpoint_text(
    clusterer: IncrementalClusterer,
    documents: List[Document],
    cache: "RecordCache",
    sequence: Optional[int],
) -> str:
    """The checkpoint file: only the scalars and the assignment are
    encoded here, the documents come from ``cache`` (which is rebuilt
    from ``documents``, the active set)."""
    from .durability.records import array_member, member, stamped_object

    kmeans = clusterer.kmeans
    statistics = clusterer.statistics
    members = [
        member("format", _FORMAT),
        member("version", _VERSION),
        member("model", {
            "half_life": clusterer.model.half_life,
            "life_span": clusterer.model.life_span,
        }),
        member("kmeans", {
            "k": kmeans.k,
            "delta": kmeans.delta,
            "max_iterations": kmeans.max_iterations,
            "seed": kmeans.seed,
            "engine": kmeans.engine.name,
            "criterion": kmeans.criterion,
            "rescue_outliers": kmeans.rescue_outliers,
        }),
        member("warm_start", clusterer.warm_start),
        member("statistics_backend", statistics.backend_name),
        member("now", statistics.now),
        array_member("documents", *cache.retain(documents)),
        member("assignment", clusterer.assignments()),
    ]
    if sequence is not None:
        members.append(member("sequence", int(sequence)))
    return stamped_object(members)


def read_checkpoint_state(path: PathLike) -> Dict[str, Any]:
    """Parse ``path`` and validate its envelope, returning the raw state.

    Checks JSON well-formedness, the format marker, the version, that
    no top-level field is unknown, and — when the file carries one —
    the payload checksum. Raises :class:`CheckpointError` on any
    mismatch; the structural fields are validated later by
    :func:`load_checkpoint`.
    """
    from .durability.atomic import checksum_matches

    try:
        with open(path, encoding="utf-8") as handle:
            state = json.load(handle)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: invalid JSON: {exc}") from exc

    if not isinstance(state, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    if state.get("format") != _FORMAT:
        raise CheckpointError(
            f"{path}: not a repro checkpoint "
            f"(format={state.get('format')!r})"
        )
    if state.get("version") != _VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version "
            f"{state.get('version')!r} (expected {_VERSION})"
        )
    unknown = sorted(set(state) - _FIELDS)
    if unknown:
        raise CheckpointError(
            f"{path}: unknown checkpoint field(s) {unknown} — the file "
            f"is corrupt or was edited by hand"
        )
    if checksum_matches(state) is False:
        raise CheckpointError(
            f"{path}: checksum mismatch — the file is corrupt or was "
            f"edited by hand (remove the 'checksum' field to force a "
            f"load)"
        )
    return state


def load_checkpoint(
    path: PathLike,
    vocabulary: Optional[Vocabulary] = None,
) -> Tuple[IncrementalClusterer, Vocabulary]:
    """Restore a clusterer (and its vocabulary) from ``path``.

    Pass the live ``vocabulary`` to re-intern terms into an existing
    repository's id space; with ``None`` a fresh vocabulary is grown.
    Returns ``(clusterer, vocabulary)``.

    The clusterer always runs on the library's engine and statistics
    backend. Statistics are rebuilt from the documents, so a checkpoint
    that names another engine or backend (one since removed, a test
    oracle, or none at all) restores to the same state; such a load is
    counted on the ambient recorder (``checkpoint.path_migrated``).

    The payload checksum (when present) is verified, and every
    assignment entry is validated against the checkpointed ``k`` —
    a cluster id outside ``0..k-1`` raises :class:`CheckpointError`
    instead of warm-starting into undefined behaviour. Assignments for
    documents that expire on restore are dropped and counted on the
    ambient recorder (``checkpoint.assignments_dropped``).
    """
    recorder = resolve(None)
    with Span(recorder, "checkpoint.load") as span:
        state = read_checkpoint_state(path)
        for field in ("model", "kmeans", "now", "documents", "assignment"):
            if field not in state:
                raise CheckpointError(f"{path}: missing field {field!r}")

        if vocabulary is None:
            vocabulary = Vocabulary()

        try:
            model = ForgettingModel(
                half_life=state["model"]["half_life"],
                life_span=state["model"]["life_span"],
            )
            kmeans_state = state["kmeans"]
            clusterer = IncrementalClusterer(
                model,
                k=kmeans_state["k"],
                delta=kmeans_state["delta"],
                max_iterations=kmeans_state["max_iterations"],
                seed=kmeans_state["seed"],
                warm_start=state.get("warm_start", True),
                rescue_outliers=kmeans_state.get("rescue_outliers", True),
            )
            criterion = kmeans_state.get("criterion", "g")
            if criterion not in ("g", "avg"):
                raise CheckpointError(
                    f"{path}: unknown criterion {criterion!r} in checkpoint"
                )
            clusterer.kmeans.criterion = criterion
            recorded_path = (
                kmeans_state.get("engine"), state.get("statistics_backend")
            )

            documents = [
                record_to_document(record, vocabulary)
                for record in state["documents"]
            ]
            assignment = {
                str(doc_id): int(cluster_id)
                for doc_id, cluster_id in state["assignment"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{path}: malformed checkpoint ({exc!r})"
            ) from exc

        if recorder.enabled and recorded_path != (
            clusterer.kmeans.engine.name, clusterer.statistics.backend_name
        ):
            recorder.counter(
                "checkpoint.path_migrated",
                engine=recorded_path[0], backend=recorded_path[1],
            )
        k = clusterer.kmeans.k
        for doc_id, cluster_id in assignment.items():
            if not 0 <= cluster_id < k:
                raise CheckpointError(
                    f"{path}: assignment for document {doc_id!r} names "
                    f"cluster {cluster_id}, outside 0..{k - 1}"
                )

        if state["now"] is None:
            # checkpoint of a clusterer that never processed a batch
            if documents:
                raise CheckpointError(
                    f"{path}: documents present but clock is null"
                )
            span.tags["docs"] = 0
            return clusterer, vocabulary
        now = float(state["now"])
        clusterer.statistics.observe(documents, at_time=now)
        clusterer.statistics.expire()

        active = set(clusterer.statistics.doc_ids())
        kept = {
            doc_id: cluster_id
            for doc_id, cluster_id in assignment.items()
            if doc_id in active
        }
        dropped = len(assignment) - len(kept)
        if dropped and recorder.enabled:
            recorder.counter("checkpoint.assignments_dropped", dropped)
        clusterer._assignment = kept
        span.tags["docs"] = len(active)
    return clusterer, vocabulary
