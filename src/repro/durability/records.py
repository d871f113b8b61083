"""Document records, term lists and assignments, each encoded once
(format version 3).

A checkpoint holds the clock, the assignment and the active documents
(Eq. 27-29), and every document is immutable for its whole life span
γ. So the JSON of a document record is the same in every log line and
every checkpoint that carries it. A version-3 record holds its row as
one ``"row"`` string: base64 of the little-endian int32 term ids, then
the counts, in the :class:`Document`'s own row order. Its fragment
depends on the document alone, and encoding it turns no int into text.
The term strings travel once per file, as a ``"terms"`` list in id
order:

* a checkpoint carries the vocabulary from id 0 up to its length when
  the checkpoint starts;
* each log stands alone: its first line after a start or a compaction
  carries every term from id 0, each later line only the terms added
  since the line before.

The assignment travels in the same codec (:func:`assignment_text`):
one cluster id per active document, in ``statistics.documents()``
order, −1 for none.

:class:`RecordCache` keeps one fragment (UTF-8 bytes) per active
document and the encoded prefix of the term list, and
:func:`stamped_pieces` composes a file or a log line from pre-encoded
members, byte for byte what ``json.dumps`` of the dict writes, closed
by the byte checksum (:func:`~repro.durability.atomic.stamp_pieces`).
A file is written piece by piece, never joined: a string the size of a
checkpoint, freed after the write, would raise glibc's dynamic mmap
threshold to its size, and the K-means arrays below it would then come
from a heap that does not shrink.

Reading goes the other way: :func:`resolve_record` checks a record's
ids against the terms its file has carried so far and turns it into
the string-keyed record of JSONL and ``POST /add``, terms in row order,
so :func:`~repro.corpus.loaders.record_to_document` stays the one
decoder. Version 3 is the only version read; :func:`version_error`
words the refusal of any other, with the migration of a version-1 or
-2 file.

The cache's invariant: a fragment is valid while its document object is
unchanged, and the term prefix while the vocabulary's id→string map is.
A hit therefore requires the *same* document object (``cached is
doc``), so an id that expired and came back with new content is
re-encoded. Anything that ever renames or retires term ids must start
its owner on a new cache; the renaming itself goes in the checkpoint's
``terms``.
"""

from __future__ import annotations

from base64 import b64decode, b64encode
from itertools import repeat
from json.encoder import encode_basestring
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from ..corpus.document import Document
from ..exceptions import CheckpointError
from ..text.vocabulary import Vocabulary
from .atomic import PLAIN_ENCODER, PathLike, stamp_pieces

#: ``(key, encoded value)``: one member of a JSON object, its value as
#: UTF-8 pieces to be written end to end.
Member = Tuple[str, List[bytes]]

_Entry = Tuple[Document, bytes]

#: Array elements joined into one piece: a few tens of KB of records.
_BLOCK = 32

#: The members of a version-3 document record, no more and no fewer.
_RECORD_FIELDS = frozenset(
    {"doc_id", "timestamp", "topic_id", "source", "title", "row"}
)

#: The last commit of this repository that reads format versions 1
#: and 2 (term strings per record, or ``term_ids``/``counts`` lists).
LAST_V2_READER = "0850c5c"


def version_error(path: PathLike, kind: str, version: Any) -> str:
    """Why the ``kind`` file (``"checkpoint"`` or ``"journal"``) at
    ``path``, of format ``version`` (any but 3), is not read, with the
    migration of a version-1 or -2 file."""
    return (
        f"{path}: {kind} format version {version!r} is not read "
        f"(expected 3); a version-1 or -2 file migrates through commit "
        f"{LAST_V2_READER}, the last that reads it: load it with a "
        f"checkout of that commit, then save it there to write version 3"
    )


def encode(value: Any) -> bytes:
    """``value`` as ``json.dumps(value, ensure_ascii=False)`` bytes."""
    return PLAIN_ENCODER.encode(value).encode("utf-8")


def member(key: str, value: Any) -> Member:
    """Encode ``value`` as the member ``key``."""
    return key, [encode(value)]


def array_member(key: str, encoded: Sequence[bytes]) -> Member:
    """A JSON array member from already encoded elements, joined
    :data:`_BLOCK` at a time."""
    pieces = [b"["]
    for start in range(0, len(encoded), _BLOCK):
        if start:
            pieces.append(b", ")
        pieces.append(b", ".join(encoded[start:start + _BLOCK]))
    pieces.append(b"]")
    return key, pieces


def stamped_pieces(members: Sequence[Member]) -> List[bytes]:
    """The JSON text of ``members`` in order, closed by its checksum,
    as UTF-8 pieces to be written end to end.

    Equal to ``json.dumps(payload, ensure_ascii=False)`` for the
    payload the members encode, with a last ``checksum`` member: sha256
    over the text before it.
    """
    pieces: List[bytes] = []
    for key, value in members:
        pieces.append((b", " if pieces else b"{") + encode(key) + b": ")
        pieces += value
    return stamp_pieces(pieces)


def unpack(text: Any, parts: int) -> List[List[int]]:
    """The ``parts`` equal-length int lists packed end to end in
    ``text``, base64 of little-endian int32 (a row: ids, then counts);
    ``ValueError`` for anything that is not strict base64 of a whole
    number of ``parts``-tuples."""
    if not isinstance(text, str):
        raise ValueError("a packed row must be a string")
    raw = b64decode(text, validate=True)  # binascii.Error: a ValueError
    if len(raw) % (4 * parts):
        raise ValueError(
            f"{len(raw)} packed bytes are not {parts} int32 lists"
        )
    values = np.frombuffer(raw, dtype="<i4").tolist()
    size = len(values) // parts
    return [values[part * size:(part + 1) * size] for part in range(parts)]


def document_fragment(doc: Document, terms: int) -> bytes:
    """``doc``'s version-3 record as JSON, for a file carrying ``terms``
    term strings; a term id beyond them is a :class:`CheckpointError`."""
    ids = doc.term_ids
    if ids.size and int(ids.max()) >= terms:
        raise CheckpointError(
            f"document {doc.doc_id!r} holds term id {int(ids.max())}, "
            f"which is not in the vocabulary (size {terms}); was the "
            f"wrong vocabulary passed?"
        )
    # json.dumps of the record, written out: one encoder call per field
    # costs a third of one call on the dict
    return (
        f'{{"doc_id": {_text(doc.doc_id)}, '
        f'"timestamp": {_number(doc.timestamp)}, '
        f'"topic_id": {_text(doc.topic_id)}, '
        f'"source": {_text(doc.source)}, "title": {_text(doc.title)}, '
        f'"row": "{b64encode(doc.row_bytes).decode("ascii")}"}}'
    ).encode("utf-8")


def _text(value: Any) -> str:
    """``value`` as JSON: a string through the C string encoder."""
    if type(value) is str:
        return encode_basestring(value)
    return PLAIN_ENCODER.encode(value)


def _number(value: Any) -> str:
    """``value`` as JSON: a float as its repr, as ``json`` writes it."""
    if type(value) is float:
        return float.__repr__(value)
    return PLAIN_ENCODER.encode(value)


def assignment_text(
    doc_ids: Sequence[str], assignment: Mapping[str, int]
) -> str:
    """``assignment`` over the active ``doc_ids`` (in
    ``statistics.documents()`` order), packed: each document's cluster
    id, −1 when it has none. Every assigned document must be active:
    :class:`CheckpointError` otherwise."""
    clusters = np.fromiter(
        map(assignment.get, doc_ids, repeat(-1)),
        dtype="<i4", count=len(doc_ids),
    )
    if np.count_nonzero(clusters >= 0) != len(assignment):
        raise CheckpointError(
            "the assignment names a document that is not active"
        )
    return b64encode(clusters.tobytes()).decode("ascii")


def check_terms(terms: Any) -> List[str]:
    """``terms`` if it is a list of distinct strings — a file's term
    list, which only a :class:`Vocabulary` wrote — else ``ValueError``."""
    if not isinstance(terms, list) or not all(
        isinstance(term, str) for term in terms
    ):
        raise ValueError("terms must be a list of strings")
    if len(set(terms)) != len(terms):
        raise ValueError("a term is repeated in the term list")
    return terms


def resolve_record(
    record: Mapping[str, Any], terms: Sequence[str]
) -> Dict[str, Any]:
    """A version-3 document record as the string-keyed record
    :func:`~repro.corpus.loaders.record_to_document` decodes.

    ``terms`` are the term strings the record's file has carried so
    far, in id order. The record is an object with exactly the members
    :func:`document_fragment` writes, its ``row`` strict base64 of
    int32 pairs and every count positive; each id must lie inside
    ``terms`` and not repeat in the row: ``ValueError`` otherwise. The
    terms come out in row order. No vocabulary is touched, so a
    rejected record interns nothing.
    """
    if not isinstance(record, dict):
        raise ValueError("a document record must be an object")
    if record.keys() != _RECORD_FIELDS:
        raise ValueError(
            f"record members {sorted(record)} are not "
            f"{sorted(_RECORD_FIELDS)}"
        )
    ids, counts = unpack(record["row"], 2)
    if counts and min(counts) <= 0:
        raise ValueError(
            f"a count of document {record['doc_id']!r} is not positive"
        )
    if ids and not 0 <= min(ids) <= max(ids) < len(terms):
        raise ValueError(
            f"a term id of document {record.get('doc_id')!r} is outside "
            f"the {len(terms)} known terms"
        )
    if len(set(ids)) != len(ids):
        raise ValueError(
            f"a term id is repeated in document {record.get('doc_id')!r}"
        )
    return {
        "doc_id": record["doc_id"],
        "timestamp": record["timestamp"],
        "topic_id": record.get("topic_id"),
        "source": record.get("source"),
        "title": record.get("title"),
        "terms": dict(zip([terms[term_id] for term_id in ids], counts)),
    }


class RecordCache:
    """``doc_id → (document, fragment)``, plus the encoded term list.

    The fragment is :func:`document_fragment`. :meth:`fragments` adds
    what a log line carries and :meth:`prune` then drops the documents
    that left the active set; :meth:`retain` serves a checkpoint and
    rebuilds the cache from the active set. So the cache holds the
    active documents, and only them, after every batch. :meth:`terms`
    encodes each vocabulary term once, for the log and the checkpoints
    alike. See the module docstring for the invariant.
    """

    def __init__(self, vocabulary: Vocabulary) -> None:
        self.vocabulary = vocabulary
        #: Fragments encoded so far (cache misses).
        self.encoded = 0
        self._entries: Dict[str, _Entry] = {}
        self._terms: List[bytes] = []

    def __len__(self) -> int:
        return len(self._entries)

    def terms(self, start: int, stop: int) -> List[bytes]:
        """The encoded vocabulary terms of ids ``start`` up to ``stop``."""
        encoded = self._terms
        if len(encoded) < stop:
            encoded += map(encode, self.vocabulary.terms(len(encoded), stop))
        return encoded[start:stop]

    def _collect(
        self,
        documents: Iterable[Document],
        terms: int,
        into: Dict[str, _Entry],
    ) -> List[bytes]:
        entries = self._entries
        fragments: List[bytes] = []
        for doc in documents:
            entry = entries.get(doc.doc_id)
            if entry is None or entry[0] is not doc:
                entry = doc, document_fragment(doc, terms)
                self.encoded += 1
            into[doc.doc_id] = entry
            fragments.append(entry[1])
        return fragments

    def fragments(
        self, documents: Iterable[Document], terms: int
    ) -> List[bytes]:
        """The fragments of ``documents``, in order, for a file carrying
        ``terms`` term strings; added to the cache."""
        return self._collect(documents, terms, self._entries)

    def retain(
        self, documents: Iterable[Document], terms: int
    ) -> List[bytes]:
        """As :meth:`fragments`, then drop every other entry."""
        kept: Dict[str, _Entry] = {}
        fragments = self._collect(documents, terms, kept)
        self._entries = kept
        return fragments

    def prune(self, active: Sequence[str]) -> None:
        """Drop every entry whose id is not in ``active``, the active
        documents' ids, when there is one: the cache held every active
        document, so it holds more entries exactly then."""
        entries = self._entries
        if len(entries) > len(active):
            self._entries = {
                doc_id: entries[doc_id] for doc_id in active
                if doc_id in entries
            }
