"""Time windows over a chronological document stream.

The paper splits its six-month corpus into six ~30-day windows
(Section 6.2.1) and triggers one clustering per window. A
:class:`TimeWindow` is a half-open interval ``[start, end)`` in
fractional days plus the documents that fall inside it.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from .._validation import require_positive
from ..exceptions import ConfigurationError
from .document import Document
from .streams import window_end


@dataclass(frozen=True)
class TimeWindow:
    """A half-open time interval ``[start, end)`` with its documents."""

    index: int
    start: float
    end: float
    documents: Sequence[Document]

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigurationError(
                f"window end ({self.end}) must be after start ({self.start})"
            )
        for doc in self.documents:
            if not self.start <= doc.timestamp < self.end:
                raise ConfigurationError(
                    f"document {doc.doc_id!r} at t={doc.timestamp} outside "
                    f"window [{self.start}, {self.end})"
                )

    @property
    def span_days(self) -> float:
        return self.end - self.start

    def __len__(self) -> int:
        return len(self.documents)

    def topic_ids(self) -> List[str]:
        """Distinct ground-truth topic ids present, in first-seen order."""
        seen: Dict[str, None] = {}
        for doc in self.documents:
            if doc.topic_id is not None:
                seen.setdefault(doc.topic_id, None)
        return list(seen)

    def topic_sizes(self) -> Dict[str, int]:
        """``topic_id -> number of documents`` for labelled documents."""
        sizes: Dict[str, int] = {}
        for doc in self.documents:
            if doc.topic_id is not None:
                sizes[doc.topic_id] = sizes.get(doc.topic_id, 0) + 1
        return sizes

    def statistics(self) -> Dict[str, float]:
        """Table 2-style summary: docs, topics, min/max/median/mean size."""
        sizes = sorted(self.topic_sizes().values())
        if not sizes:
            return {
                "documents": len(self.documents),
                "topics": 0,
                "min_topic_size": 0,
                "max_topic_size": 0,
                "median_topic_size": 0.0,
                "mean_topic_size": 0.0,
            }
        return {
            "documents": len(self.documents),
            "topics": len(sizes),
            "min_topic_size": sizes[0],
            "max_topic_size": sizes[-1],
            "median_topic_size": float(statistics.median(sizes)),
            "mean_topic_size": sum(sizes) / len(sizes),
        }


def split_into_windows(
    documents: Iterable[Document],
    window_days: float,
    origin: float = 0.0,
    end: Optional[float] = None,
) -> List[TimeWindow]:
    """Partition ``documents`` into consecutive fixed-width windows.

    The grid starts at ``origin`` and steps by
    :func:`~repro.corpus.streams.window_end`, the rule every other
    window grid uses; each document lands in the window whose
    ``[start, end)`` holds it. Windows are produced contiguously through
    the last document and on until one reaches ``end`` (when given),
    including empty ones, so window indexes always correspond to
    calendar position.
    """
    require_positive("window_days", window_days)
    docs = sorted(documents, key=lambda d: d.timestamp)
    if not docs:
        return []
    if docs[0].timestamp < origin:
        raise ConfigurationError(
            f"document {docs[0].doc_id!r} at t={docs[0].timestamp} is "
            f"before the origin {origin}"
        )
    windows: List[TimeWindow] = []
    index = 0
    start = origin
    while index < len(docs) or (end is not None and start < end):
        stop = window_end(start, start, window_days)
        first = index
        while index < len(docs) and docs[index].timestamp < stop:
            index += 1
        windows.append(TimeWindow(
            index=len(windows), start=start, end=stop,
            documents=tuple(docs[first:index]),
        ))
        start = stop
    return windows
