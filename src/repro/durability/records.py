"""Document records and term lists, each encoded once (format version 2).

A checkpoint holds the clock, the assignment and the active documents
(Eq. 27-29), and every document is immutable for its whole life span
γ. So the JSON of a document record is the same in every journal line
and every checkpoint that carries it. A version-2 record holds its row
in term ids — ``"term_ids"`` and ``"counts"``, two int lists in the
:class:`Document`'s own row order — so its fragment depends on the
document alone. The term strings travel once per file, as a ``"terms"``
list in id order:

* a checkpoint carries the vocabulary from id 0 up to its length when
  the checkpoint starts;
* each journal stands alone: its first line after a start or a rotation
  carries every term from id 0, each later line only the terms added
  since the line before.

:class:`RecordCache` keeps one fragment per document and the encoded
prefix of the term list, and :func:`stamped_object` composes a file or
a journal line from pre-encoded members, byte for byte what
``json.dumps`` of the dict writes, closed by the byte checksum
(:func:`~repro.durability.atomic.stamp`).

Reading goes the other way: :func:`resolve_record` checks a record's
ids against the terms its file has carried so far and turns it into
the string-keyed record of JSONL and ``POST /add``, terms in row order,
so :func:`~repro.corpus.loaders.record_to_document` stays the one
decoder.

The cache's invariant: a fragment is valid while its document object is
unchanged, and the term prefix while the vocabulary's id→string map is.
A hit therefore requires the *same* document object (``cached is
doc``), so an id that expired and came back with new content is
re-encoded. Anything that ever renames or retires term ids must start
its owner on a new cache; the renaming itself goes in the checkpoint's
``terms``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from ..corpus.document import Document
from ..exceptions import CheckpointError
from ..text.vocabulary import Vocabulary
from .atomic import PLAIN_ENCODER, stamp

#: ``(key, encoded value)``: one member of a JSON object.
Member = Tuple[str, str]

_Entry = Tuple[Document, str]


def member(key: str, value: Any) -> Member:
    """Encode ``value`` as the member ``key``."""
    return key, PLAIN_ENCODER.encode(value)


def array_member(key: str, encoded: Sequence[str]) -> Member:
    """A JSON array member from already encoded elements."""
    return key, "[" + ", ".join(encoded) + "]"


def stamped_object(members: Sequence[Member]) -> str:
    """The JSON text of ``members`` in order, closed by its checksum.

    Equal to ``json.dumps(payload, ensure_ascii=False)`` for the
    payload the members encode, with a last ``checksum`` member: sha256
    over the text before it.
    """
    return stamp("{" + ", ".join([
        f"{PLAIN_ENCODER.encode(key)}: {value}" for key, value in members
    ]))


def document_fragment(doc: Document, terms: int) -> str:
    """``doc``'s version-2 record as JSON, for a file carrying ``terms``
    term strings; a term id beyond them is a :class:`CheckpointError`."""
    ids = doc.term_ids.tolist()
    if ids and max(ids) >= terms:
        raise CheckpointError(
            f"document {doc.doc_id!r} holds term id {max(ids)}, which is "
            f"not in the vocabulary (size {terms}); was the wrong "
            f"vocabulary passed?"
        )
    return PLAIN_ENCODER.encode({
        "doc_id": doc.doc_id,
        "timestamp": doc.timestamp,
        "topic_id": doc.topic_id,
        "source": doc.source,
        "title": doc.title,
        "term_ids": ids,
        "counts": doc.counts.tolist(),
    })


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
    """A version-2 document record as the string-keyed record
    :func:`~repro.corpus.loaders.record_to_document` decodes.

    ``terms`` are the term strings the record's file has carried so
    far, in id order. ``term_ids`` and ``counts`` must be lists of one
    length, and each id an ``int`` (not a ``bool``) inside ``terms``
    and not repeated in the row: ``ValueError`` otherwise, ``KeyError``
    for a missing field. The terms come out in row order. No vocabulary
    is touched, so a rejected record interns nothing.
    """
    ids = record["term_ids"]
    counts = record["counts"]
    if not isinstance(ids, list) or not isinstance(counts, list):
        raise ValueError("term_ids and counts must be lists")
    if len(ids) != len(counts):
        raise ValueError(
            f"{len(ids)} term ids but {len(counts)} counts"
        )
    for term_id in ids:
        if type(term_id) is not int:  # a bool is not a term id
            raise ValueError(f"term id {term_id!r} is not an integer")
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
    what a journal line carries; :meth:`retain` serves a checkpoint and
    rebuilds the cache from the active set, so it holds the window plus
    the batches journaled since the last checkpoint. :meth:`terms`
    encodes each vocabulary term once, for the journal and the
    checkpoints alike. See the module docstring for the invariant.
    """

    def __init__(self, vocabulary: Vocabulary) -> None:
        self.vocabulary = vocabulary
        #: Fragments encoded so far (cache misses).
        self.encoded = 0
        self._entries: Dict[str, _Entry] = {}
        self._terms: List[str] = []

    def __len__(self) -> int:
        return len(self._entries)

    def terms(self, start: int, stop: int) -> List[str]:
        """The encoded vocabulary terms of ids ``start`` up to ``stop``."""
        encoded = self._terms
        if len(encoded) < stop:
            encoded += map(
                PLAIN_ENCODER.encode,
                self.vocabulary.terms(len(encoded), stop),
            )
        return encoded[start:stop]

    def _collect(
        self,
        documents: Iterable[Document],
        terms: int,
        into: Dict[str, _Entry],
    ) -> List[str]:
        entries = self._entries
        fragments: List[str] = []
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
    ) -> List[str]:
        """The fragments of ``documents``, in order, for a file carrying
        ``terms`` term strings; added to the cache."""
        return self._collect(documents, terms, self._entries)

    def retain(
        self, documents: Iterable[Document], terms: int
    ) -> List[str]:
        """As :meth:`fragments`, then drop every other entry."""
        kept: Dict[str, _Entry] = {}
        fragments = self._collect(documents, terms, kept)
        self._entries = kept
        return fragments
