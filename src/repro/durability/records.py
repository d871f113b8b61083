"""Per-document record fragments: each active document is encoded once.

A checkpoint holds the clock, the assignment and the active documents
(Eq. 27-29), and every document is immutable for its whole life span
γ. So the JSON of a document record — once as the bytes written, once
in the canonical form the checksum is taken over — is the same in every
journal line and every checkpoint that carries it. :class:`RecordCache`
keeps both fragments per document, and :func:`stamped_object` composes
a file or a journal line from pre-encoded members, byte for byte what
``json.dumps`` of the stamped dict would write.

The cache's invariant: a fragment is valid while its document object
and the vocabulary's id→string map are unchanged. A hit therefore
requires the *same* document object (``cached is doc``), so an id that
expired and came back with new content is re-encoded. Anything that
ever renames or retires term ids must start its owner on a new cache.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..corpus.document import Document
from ..persistence import document_record
from ..text.vocabulary import Vocabulary
from .atomic import (
    CANONICAL_ENCODER,
    CHECKSUM_FIELD,
    PLAIN_ENCODER,
    chunks_checksum,
)

#: ``(key, plain value, canonical value)``: one member of a JSON object
#: whose value is already encoded both ways.
Member = Tuple[str, str, str]

_Entry = Tuple[Document, str, str]


def member(key: str, value: Any) -> Member:
    """Encode ``value`` both ways."""
    return key, PLAIN_ENCODER.encode(value), CANONICAL_ENCODER.encode(value)


def array_member(
    key: str, plain: Sequence[str], canonical: Sequence[str]
) -> Member:
    """A JSON array member from already encoded elements."""
    return key, "[" + ", ".join(plain) + "]", "[" + ",".join(canonical) + "]"


def stamped_object(members: Sequence[Member]) -> str:
    """The JSON text of ``members`` in order, stamped with a checksum.

    Equal to ``json.dumps({**payload, "checksum": payload_checksum(
    payload)}, ensure_ascii=False)`` for the payload the members encode:
    the checksum is sha256 over the key-sorted canonical composition,
    hashed piece by piece, and the text keeps member order and
    ``json.dumps``'s separators.
    """
    canonical = _object(
        ((key, value) for key, _, value in sorted(members, key=itemgetter(0))),
        ",", ":",
    )
    stamp = member(CHECKSUM_FIELD, chunks_checksum(canonical))
    return "".join(_object(
        ((key, value) for key, value, _ in (*members, stamp)), ", ", ": ",
    ))


def _object(
    pairs: Iterable[Tuple[str, str]], comma: str, colon: str
) -> List[str]:
    """The pieces of a JSON object with already encoded values."""
    pieces: List[str] = []
    for key, value in pairs:
        pieces += (comma if pieces else "{", PLAIN_ENCODER.encode(key),
                   colon, value)
    pieces.append("}")
    return pieces


class RecordCache:
    """``doc_id → (document, plain fragment, canonical fragment)``.

    The plain fragment is ``json.dumps(document_record(doc, vocab),
    ensure_ascii=False)``, the canonical one ``canonical_json`` of the
    same record. :meth:`fragments` adds what a journal line carries;
    :meth:`retain` serves a checkpoint and rebuilds the cache from the
    active set, so it holds the window plus the batches journaled since
    the last checkpoint. See the module docstring for the invariant.
    """

    def __init__(self, vocabulary: Vocabulary) -> None:
        self.vocabulary = vocabulary
        self._entries: Dict[str, _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _entry(self, doc: Document) -> _Entry:
        entry = self._entries.get(doc.doc_id)
        if entry is not None and entry[0] is doc:
            return entry
        record = document_record(doc, self.vocabulary)
        return (
            doc,
            PLAIN_ENCODER.encode(record),
            CANONICAL_ENCODER.encode(record),
        )

    def _collect(
        self, documents: Iterable[Document], into: Dict[str, _Entry]
    ) -> Tuple[List[str], List[str]]:
        plain: List[str] = []
        canonical: List[str] = []
        for doc in documents:
            entry = into[doc.doc_id] = self._entry(doc)
            plain.append(entry[1])
            canonical.append(entry[2])
        return plain, canonical

    def fragments(
        self, documents: Iterable[Document]
    ) -> Tuple[List[str], List[str]]:
        """Plain and canonical fragments of ``documents``, in order,
        added to the cache."""
        return self._collect(documents, self._entries)

    def retain(
        self, documents: Iterable[Document]
    ) -> Tuple[List[str], List[str]]:
        """As :meth:`fragments`, then drop every other entry."""
        kept: Dict[str, _Entry] = {}
        fragments = self._collect(documents, kept)
        self._entries = kept
        return fragments
