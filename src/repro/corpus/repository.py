"""Document repository: id-keyed storage with a shared vocabulary.

The repository is the boundary between raw text and the clustering
machinery. It owns a :class:`~repro.text.Vocabulary` and a
:class:`~repro.text.TextPipeline`, and exposes documents in arrival
order. Removal (document expiry per the paper's life-span ``γ``) is
supported; removed ids are never reused.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from ..exceptions import DuplicateDocumentError, UnknownDocumentError
from ..text import TextPipeline, Vocabulary
from .document import Document


class DocumentRepository:
    """Ordered, id-keyed document store with text ingestion.

    >>> repo = DocumentRepository()
    >>> doc = repo.add_text("d1", 0.0, "Asian markets fell again today.")
    >>> repo.size
    1
    >>> repo.vocabulary.term(0)
    'asian'
    """

    def __init__(
        self,
        pipeline: Optional[TextPipeline] = None,
        vocabulary: Optional[Vocabulary] = None,
    ) -> None:
        self.pipeline = pipeline if pipeline is not None else TextPipeline()
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self._documents: Dict[str, Document] = {}

    # -- ingestion -----------------------------------------------------

    def add_text(
        self,
        doc_id: str,
        timestamp: float,
        text: str,
        topic_id: Optional[str] = None,
        source: Optional[str] = None,
        title: Optional[str] = None,
    ) -> Document:
        """Process ``text`` through the pipeline and store the document."""
        counts = self.pipeline.term_frequencies(text)
        document = Document(
            doc_id=doc_id,
            timestamp=float(timestamp),
            term_counts=self.vocabulary.add_counts(counts),
            topic_id=topic_id,
            source=source,
            title=title,
        )
        return self.add(document)

    def add(self, document: Document) -> Document:
        """Store a pre-built :class:`Document`; ids must be unique."""
        if document.doc_id in self._documents:
            raise DuplicateDocumentError(
                f"document id {document.doc_id!r} already in repository"
            )
        self._documents[document.doc_id] = document
        return document

    def add_all(self, documents: Iterable[Document]) -> List[Document]:
        """Store many documents, returning them as a list."""
        return [self.add(document) for document in documents]

    # -- removal -------------------------------------------------------

    def remove(self, doc_id: str) -> Document:
        """Remove and return the document with ``doc_id``."""
        try:
            return self._documents.pop(doc_id)
        except KeyError:
            raise UnknownDocumentError(
                f"document id {doc_id!r} not in repository"
            ) from None

    def remove_all(self, doc_ids: Iterable[str]) -> List[Document]:
        """Remove many documents, returning them."""
        return [self.remove(doc_id) for doc_id in doc_ids]

    # -- access ----------------------------------------------------------

    def get(self, doc_id: str) -> Document:
        """Return the document with ``doc_id`` or raise."""
        try:
            return self._documents[doc_id]
        except KeyError:
            raise UnknownDocumentError(
                f"document id {doc_id!r} not in repository"
            ) from None

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    @property
    def size(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Document]:
        """Iterate documents in insertion (arrival) order."""
        return iter(self._documents.values())

    def documents(self) -> List[Document]:
        """All documents in arrival order."""
        return list(self._documents.values())

    def doc_ids(self) -> List[str]:
        """All document ids in arrival order."""
        return list(self._documents.keys())

    def between(self, start: float, end: float) -> List[Document]:
        """Documents with ``start <= timestamp < end`` in arrival order."""
        return [
            doc for doc in self._documents.values()
            if start <= doc.timestamp < end
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DocumentRepository(size={len(self)}, "
            f"vocabulary={len(self.vocabulary)})"
        )
