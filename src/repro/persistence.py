"""Checkpoint/restore for the on-line clustering pipeline.

A deployed stream clusterer must survive restarts. The checkpoint
format exploits the forgetting model's exactness: since every weight is
``dw = λ^(now - T)``, persisting the model parameters, the clock, the
active documents and the current assignment is *sufficient* — restoring
rebuilds statistics bit-equivalent to the live ones (the same guarantee
the incremental-equals-from-scratch property tests establish).

Format: a single JSON document, version 3::

    {"format": "repro-checkpoint", "version": 3,
     "model": {"half_life": 7.0, "life_span": 14.0},
     "kmeans": {"k": 24, "delta": 0.01, ...},
     "warm_start": true, "statistics_backend": "columnar", "now": 42.0,
     "terms": ["asian", "crisi", ...],
     "documents": [{"doc_id": ..., "timestamp": ..., "topic_id": ...,
                    "source": ..., "title": ..., "row": "AQAAAAAA..."}],
     "assignment": "AAAAAP////8BAAAA...",
     "sequence": 6, "checksum": "sha256:..."}

``terms`` is the vocabulary in id order, up to its length when the
checkpoint starts. Each document's ``row`` is base64 of its term ids
(little-endian int32, naming terms by id into ``terms``, in the
document's own row order) followed by its counts. ``assignment`` is
base64 of one little-endian int32 cluster id per document of
``documents``, −1 for none
(:func:`~repro.durability.records.assignment_text`). A log line carries
the same two members for its batch (:mod:`repro.durability.journal`).

Loading interns ``terms`` first, so a fresh vocabulary gets the live
term ids, decodes each record through
:func:`~repro.corpus.loaders.record_to_document` after resolving it to
the string-keyed JSONL shape (:mod:`repro.durability.records`), and
hands documents and assignment to
:meth:`~repro.core.incremental.IncrementalClusterer.restore_batch`, as
recovery does for every log line. The file stays portable: a live
vocabulary re-interns the strings. Version 3 is the only version read:
a file of version 1 or 2 is a :class:`CheckpointError` whose message
gives the migration (:func:`~repro.durability.records.version_error`).

Durability: :func:`save_checkpoint` composes the JSON from fragments
encoded once per document (:mod:`repro.durability.records`) and goes
through :mod:`repro.durability.atomic` — the text is written into a
sibling temp file, fsynced, and renamed over the target, with the
previous checkpoint rotated to ``<path>.bak`` — so no crash or
serialization error ever leaves a corrupt or truncated state file.
The ``checksum`` field, last in the file, is sha256 over the bytes
before it, and is verified on load; ``sequence`` counts the batches the
state reflects and ties the checkpoint to its log (see
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
_VERSION = 3

#: Every top-level field a checkpoint may carry. Anything else — a
#: ``checksum`` key with a flipped bit, say — is corruption, not a file
#: without a checksum.
_FIELDS = frozenset({
    "format", "version", "model", "kmeans", "warm_start",
    "statistics_backend", "now", "terms", "documents", "assignment",
    "sequence", "checksum",
})


def document_record(
    doc: Document, vocabulary: Vocabulary
) -> Dict[str, Any]:
    """Serialize one document with terms keyed by string.

    The record shape of JSONL and ``POST /add`` (checkpoints and
    journals name terms by id, see :mod:`repro.durability.records`).
    Raises
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
) -> int:
    """Write ``clusterer``'s full state to ``path`` as JSON, atomically;
    returns the bytes written.

    ``vocabulary`` must be the vocabulary the clusterer's documents
    were ingested with (usually ``repository.vocabulary``).
    ``sequence`` (used by :class:`repro.durability.Checkpointer`)
    records how many batches the state reflects, pairing the checkpoint
    with its log. The write never touches the previous checkpoint
    until the new one is fully on disk; the old file survives one
    rotation as ``<path>.bak``.

    The documents and terms come from ``cache``'s fragments (see
    :mod:`repro.durability.records`), which is then rebuilt from the
    active set; without one, a throwaway cache encodes them all.
    ``checkpoint.save`` (covering the serialisation too, tagged with
    ``docs`` and ``new_docs``, the fragments encoded inside it) and
    ``checkpoint.bytes`` go to ``recorder``, else the ambient one.
    """
    # imported late: repro.durability builds on this module, so the
    # low-level writer cannot be a top-level import without a cycle
    from .durability.atomic import atomic_write_pieces
    from .durability.records import RecordCache

    if cache is None:
        cache = RecordCache(vocabulary)
    elif cache.vocabulary is not vocabulary:
        raise CheckpointError(
            "the record cache was built over another vocabulary"
        )
    recorder = resolve(recorder)
    documents = clusterer.statistics.documents()
    encoded = cache.encoded
    with Span(recorder, "checkpoint.save",
              {"docs": len(documents)}) as span:
        pieces = _checkpoint_pieces(clusterer, documents, cache, sequence)
        span.tags["new_docs"] = cache.encoded - encoded
        written = atomic_write_pieces(
            pieces, path, durable=True, backup=True
        )
    if recorder.enabled:
        recorder.counter("checkpoint.saves")
        recorder.gauge("checkpoint.bytes", written)
    return written


def _checkpoint_pieces(
    clusterer: IncrementalClusterer,
    documents: List[Document],
    cache: "RecordCache",
    sequence: Optional[int],
) -> List[bytes]:
    """The checkpoint file, in pieces: only the scalars and the assignment are
    encoded here, the terms and documents come from ``cache`` (which is
    rebuilt from ``documents``, the active set)."""
    from .durability.records import (
        array_member,
        assignment_text,
        member,
        stamped_pieces,
    )

    # read once: producers may intern new terms while this runs, and
    # every active document was interned before it was committed
    terms = len(cache.vocabulary)
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
        array_member("terms", cache.terms(0, terms)),
        array_member("documents", cache.retain(documents, terms)),
        member("assignment", assignment_text(
            [doc.doc_id for doc in documents], clusterer.assignments()
        )),
    ]
    if sequence is not None:
        members.append(member("sequence", int(sequence)))
    return stamped_pieces(members)


def read_checkpoint_state(path: PathLike) -> Dict[str, Any]:
    """Parse ``path`` and validate its envelope, returning the raw state.

    Checks that the file is UTF-8 JSON, the format marker, the version
    (3; a version-1 or -2 file is refused with the migration, see
    :func:`~repro.durability.records.version_error`), that no top-level
    field is unknown, and — when the file carries one — the checksum.
    The state comes back with each document resolved to the
    string-keyed record of JSONL, terms in row order
    (:func:`~repro.durability.records.resolve_record` checks every term
    id against ``terms``); ``terms`` stays, to be interned before the
    records are decoded. The ``assignment`` comes back unpacked, as its
    int list. Raises :class:`CheckpointError` on any mismatch; the
    structural fields are validated later by :func:`load_checkpoint`.
    """
    from .durability.atomic import text_checksum_matches
    from .durability.records import (
        check_terms,
        resolve_record,
        unpack,
        version_error,
    )

    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
        state = json.loads(text)
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: invalid JSON: {exc}") from exc

    if not isinstance(state, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    if state.get("format") != _FORMAT:
        raise CheckpointError(
            f"{path}: not a repro checkpoint "
            f"(format={state.get('format')!r})"
        )
    version = state.get("version")
    if type(version) is not int or version != _VERSION:
        raise CheckpointError(version_error(path, "checkpoint", version))
    unknown = sorted(set(state) - _FIELDS)
    if unknown:
        raise CheckpointError(
            f"{path}: unknown checkpoint field(s) {unknown} — the file "
            f"is corrupt or was edited by hand"
        )
    if text_checksum_matches(text, state) is False:
        raise CheckpointError(
            f"{path}: checksum mismatch — the file is corrupt or was "
            f"edited by hand (remove the 'checksum' field to force a "
            f"load)"
        )
    try:
        terms = check_terms(state["terms"])
        state["documents"] = [
            resolve_record(record, terms) for record in state["documents"]
        ]
        state["assignment"] = unpack(state["assignment"], 1)[0]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: malformed checkpoint ({exc!r})"
        ) from exc
    return state


def load_checkpoint(
    path: PathLike,
    vocabulary: Optional[Vocabulary] = None,
) -> Tuple[IncrementalClusterer, Vocabulary]:
    """Restore a clusterer (and its vocabulary) from ``path``.

    Pass the live ``vocabulary`` to re-intern terms into an existing
    repository's id space; with ``None`` a fresh vocabulary is grown.
    The checkpoint's ``terms`` are interned first, in id order, so a
    fresh vocabulary gets the ids the writer's had, and every document
    its row order. Returns ``(clusterer, vocabulary)``.

    The clusterer always runs on the library's engine and statistics
    backend. Statistics are rebuilt from the documents, so a checkpoint
    that names another engine or backend (one since removed, a test
    oracle, or none at all) restores to the same state.

    The state goes through
    :meth:`~repro.core.incremental.IncrementalClusterer.restore_batch`,
    the step recovery takes for every log line: observe at ``now``,
    expire, take the recorded assignment; an assignment that does not
    have one entry per document of the file, each inside the
    checkpointed ``k`` (or −1), is a :class:`CheckpointError`. The
    entries of documents that expire on restore (the clock moved past
    their life span after their last fit) are dropped and counted on
    the ambient recorder (``checkpoint.assignments_dropped``).
    """
    with Span(resolve(None), "checkpoint.load") as span:
        clusterer, vocabulary = _restore_state(
            path, read_checkpoint_state(path), vocabulary
        )
        span.tags["docs"] = clusterer.statistics.size
    return clusterer, vocabulary


def _restore_state(
    path: PathLike,
    state: Dict[str, Any],
    vocabulary: Optional[Vocabulary] = None,
) -> Tuple[IncrementalClusterer, Vocabulary]:
    """The restore step of :func:`load_checkpoint`, over ``state``, what
    :func:`read_checkpoint_state` parsed from ``path`` (named in
    errors). :func:`~repro.durability.recover` reads each candidate
    once and restores the one it picks through here."""
    recorder = resolve(None)
    for field in ("model", "kmeans", "now", "documents", "assignment"):
        if field not in state:
            raise CheckpointError(f"{path}: missing field {field!r}")

    if vocabulary is None:
        vocabulary = Vocabulary()

    try:
        # the clock first: a bad one is refused before any term is
        # interned
        now = None if state["now"] is None else float(state["now"])
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

        # the live term ids, and the rows in live order
        for term in state["terms"]:
            vocabulary.add(term)
        documents = [
            record_to_document(record, vocabulary)
            for record in state["documents"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: malformed checkpoint ({exc!r})"
        ) from exc

    if now is None:
        # checkpoint of a clusterer that never processed a batch
        if documents:
            raise CheckpointError(
                f"{path}: documents present but clock is null"
            )
        return clusterer, vocabulary
    try:
        dropped = clusterer.restore_batch(
            documents, now, state["assignment"], before_expiry=True
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{path}: malformed checkpoint ({exc})"
        ) from exc
    if dropped and recorder.enabled:
        recorder.counter("checkpoint.assignments_dropped", dropped)
    return clusterer, vocabulary

