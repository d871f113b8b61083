"""Stream batching helpers: replaying a document list as an on-line feed.

Everything downstream of the corpus consumes batches of documents with
an explicit update time; this module turns a flat document list into
that shape:

>>> for at_time, batch in iter_batches(docs, batch_days=1.0):  # doctest: +SKIP
...     clusterer.process_batch(batch, at_time=at_time)

or in one call::

    last = replay(clusterer, docs, batch_days=1.0)

Every window grid in the library (:func:`iter_batches`,
``split_into_windows``, the service's ``feed()``) steps with
:func:`window_end`.
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


def window_end(end: float, timestamp: float, width: float) -> float:
    """End of the window that holds ``timestamp``, stepping on from ``end``.

    ``end`` is where the current window closes and ``timestamp >= end``.
    The next window ends at ``end + width``; when ``timestamp`` lies
    beyond that too, the empty gap is jumped in one multiplication, so
    a far-future timestamp costs one step, not billions. Should the
    jump be lost to float rounding (``end + width == end`` at 1e17 and a
    width of one day), the grid re-anchors at ``timestamp + width``
    rather than loop forever.
    """
    end += width
    if timestamp >= end:
        end += ((timestamp - end) // width + 1.0) * width
        if end <= timestamp:
            end = timestamp + width
    return end


def iter_batches(
    documents: Sequence[Document],
    batch_days: float,
    origin: Optional[float] = None,
) -> Iterator[Tuple[float, List[Document]]]:
    """Yield ``(batch_end_time, batch)`` over fixed-width time slices.

    Documents are sorted by ``(timestamp, doc_id)``; slices are
    half-open ``[start, start + batch_days)`` on the grid that starts at
    ``origin`` (default: the earliest timestamp) and steps by
    :func:`window_end`. Empty slices are skipped: the next batch's
    update advances the decay clock across them.
    """
    require_positive("batch_days", batch_days)
    ordered = sorted(documents, key=lambda d: (d.timestamp, d.doc_id))
    if not ordered:
        return
    end = origin if origin is not None else ordered[0].timestamp
    if end > ordered[0].timestamp:
        raise ValueError(
            f"origin {end} is after the first document "
            f"({ordered[0].timestamp})"
        )
    batch: List[Document] = []
    for document in ordered:
        if document.timestamp >= end:
            if batch:
                yield end, batch
                batch = []
            end = window_end(end, document.timestamp, batch_days)
        batch.append(document)
    yield end, batch


def replay(
    clusterer: "IncrementalClusterer",
    documents: Sequence[Document],
    batch_days: float,
    origin: Optional[float] = None,
    on_batch: Optional[
        Callable[[float, List[Document], "ClusteringResult"], None]
    ] = None,
) -> Optional["ClusteringResult"]:
    """Drive ``clusterer`` over ``documents`` in :func:`iter_batches` slices.

    ``on_batch(at_time, batch, result)`` is invoked after each batch.
    Returns the last batch's result, ``None`` when there were no
    documents; collect the others through ``on_batch``.
    """
    result: Optional["ClusteringResult"] = None
    for at_time, batch in iter_batches(documents, batch_days, origin=origin):
        result = clusterer.process_batch(batch, at_time=at_time)
        if on_batch is not None:
            on_batch(at_time, batch, result)
    return result
