"""The :class:`Document` value object.

A document is immutable once constructed: its identity, acquisition time
(``T_i`` in the paper, in fractional days), term-count vector (over
integer term ids from a :class:`~repro.text.Vocabulary`) and optional
ground-truth topic label. Everything time-varying about a document
(weight ``dw_i``, probability ``Pr(d_i)``) lives in
:class:`~repro.forgetting.CorpusStatistics`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from .._validation import require_finite


def check_identity(doc_id: object, timestamp: object) -> None:
    """Raise unless ``doc_id`` is a non-empty string and ``timestamp`` a
    finite number: the checks :class:`Document` makes of its fields."""
    if not isinstance(doc_id, str):
        raise TypeError(f"doc_id must be a string, got {doc_id!r}")
    if not doc_id:
        raise ValueError("doc_id must be a non-empty string")
    if not isinstance(timestamp, (int, float)):
        raise TypeError("timestamp must be a number (fractional days)")
    require_finite(f"timestamp of document {doc_id!r}", timestamp)


@dataclass(frozen=True)
class Document:
    """An immutable timestamped document.

    Parameters
    ----------
    doc_id:
        Unique non-empty string identifier within a repository.
    timestamp:
        Acquisition time ``T_i`` in fractional days from the stream
        origin (day 0 = first day of the corpus); must be finite.
    term_counts:
        Mapping ``term_id -> frequency`` (``f_ik`` in the paper).
    topic_id:
        Optional ground-truth topic label used only for evaluation.
    source / title:
        Optional provenance metadata.
    """

    doc_id: str
    timestamp: float
    term_counts: Mapping[int, int]
    topic_id: Optional[str] = None
    source: Optional[str] = None
    title: Optional[str] = None
    _length: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        check_identity(self.doc_id, self.timestamp)
        counts: Dict[int, int] = {}
        for term_id, count in dict(self.term_counts).items():
            if count < 0:
                raise ValueError(
                    f"negative term count {count} for term {term_id} "
                    f"in document {self.doc_id!r}"
                )
            if count > 0:
                counts[int(term_id)] = int(count)
        object.__setattr__(self, "term_counts", counts)
        object.__setattr__(self, "_length", sum(counts.values()))

    @property
    def length(self) -> int:
        """Total token count ``len_i = Σ_k f_ik`` (Eq. 15)."""
        return self._length

    @property
    def is_empty(self) -> bool:
        """True when the document has no terms after preprocessing."""
        return self._length == 0

    def term_probability(self, term_id: int) -> float:
        """``Pr(t_k | d_i) = f_ik / len_i`` (Eq. 8); 0 for empty docs."""
        if self._length == 0:
            return 0.0
        return self.term_counts.get(term_id, 0) / self._length

    def __len__(self) -> int:
        return self._length
