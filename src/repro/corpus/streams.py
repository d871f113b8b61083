"""Stream batching helpers: replaying a document list as an on-line feed.

Everything downstream of the corpus consumes batches of documents with
an explicit update time; this module turns a flat document list into
that shape:

>>> for at_time, batch in iter_batches(docs, batch_days=1.0):  # doctest: +SKIP
...     clusterer.process_batch(batch, at_time=at_time)

or in one call::

    last = replay(clusterer, docs, batch_days=1.0)
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .._validation import require_positive
from .document import Document

if TYPE_CHECKING:  # imported lazily to avoid a corpus <-> core cycle
    from ..core.incremental import IncrementalClusterer
    from ..core.result import ClusteringResult


def iter_batches(
    documents: Sequence[Document],
    batch_days: float,
    origin: Optional[float] = None,
    include_empty: bool = False,
) -> Iterator[Tuple[float, List[Document]]]:
    """Yield ``(batch_end_time, batch)`` over fixed-width time slices.

    Documents are sorted by timestamp; slices are half-open
    ``[start, start + batch_days)`` beginning at ``origin`` (default:
    the earliest timestamp). Empty slices are skipped unless
    ``include_empty`` — with it, every slice up to the last document is
    yielded, which keeps decay clocks honest during quiet periods.
    """
    require_positive("batch_days", batch_days)
    ordered = sorted(documents, key=lambda d: (d.timestamp, d.doc_id))
    if not ordered:
        return
    start = origin if origin is not None else ordered[0].timestamp
    end = ordered[-1].timestamp
    if start > ordered[0].timestamp:
        raise ValueError(
            f"origin {start} is after the first document "
            f"({ordered[0].timestamp})"
        )
    index = 0
    batch_start = start
    while batch_start <= end:
        batch_end = batch_start + batch_days
        batch: List[Document] = []
        while index < len(ordered) and ordered[index].timestamp < batch_end:
            batch.append(ordered[index])
            index += 1
        if batch or include_empty:
            yield batch_end, batch
        batch_start = batch_end


def replay(
    clusterer: "IncrementalClusterer",
    documents: Sequence[Document],
    batch_days: float,
    origin: Optional[float] = None,
    on_batch: Optional[
        Callable[[float, List[Document], "ClusteringResult"], None]
    ] = None,
) -> Optional["ClusteringResult"]:
    """Drive ``clusterer`` over ``documents`` in ``batch_days`` slices.

    Empty slices advance the clusterer's clock without re-clustering.
    ``on_batch(at_time, batch, result)`` is invoked after each
    non-empty batch. Returns the last batch's result, ``None`` when no
    slice held a document; collect the others through ``on_batch``.
    """
    result: Optional["ClusteringResult"] = None
    for at_time, batch in iter_batches(
        documents, batch_days, origin=origin, include_empty=True
    ):
        if not batch:
            clusterer.statistics.advance_to(at_time)
            continue
        result = clusterer.process_batch(batch, at_time=at_time)
        if on_batch is not None:
            on_batch(at_time, batch, result)
    return result
