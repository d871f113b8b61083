"""The supported entry point for building and running pipelines.

:func:`open_stream` is how applications are expected to construct the
on-line clustering pipeline: it assembles the forgetting model, the
clusterer, the optional durability sidecar, and the text front-end,
then hands back a :class:`StreamSession` — a thin facade over
:class:`repro.service.ClusterService` whose writer owns ingestion and
whose readers query immutable versioned snapshots::

    import repro

    with repro.open_stream(k=16, half_life=7.0, window_days=1.0,
                           seed=7) as session:
        for doc in documents:
            session.feed(doc)
        snap = session.flush()
        print(snap.stats())
        print(session.assign({3: 2, 17: 1}))

Resuming a durable stream after a crash or restart::

    with repro.open_stream(resume="state/run.ckpt") as session:
        session.add(next_batch, at_time=42.0)

Ad-hoc construction of ``IncrementalClusterer``/``NonIncrementalClusterer``
outside the library is linted against (reprolint REP003); batch
experiments that genuinely need a bare clusterer should use
:func:`build_clusterer`, which takes the same keywords.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from .core.incremental import IncrementalClusterer
from .corpus.document import Document
from .durability.checkpointer import Checkpointer
from .durability.recovery import recover
from .exceptions import ConfigurationError
from .forgetting.model import ForgettingModel
from .obs import Recorder
from .service.service import ClusterService, PathLike
from .service.snapshot import (
    ClusterInfo,
    ClusterSnapshot,
    Query,
    QueryAssignment,
    SnapshotStats,
)
from .service.web import ServiceHTTPServer
from .text.pipeline import TextPipeline
from .text.vocabulary import Vocabulary


def build_clusterer(
    *,
    half_life: float = 7.0,
    life_span: Optional[float] = None,
    k: Optional[int] = None,
    delta: float = 0.01,
    max_iterations: int = 30,
    seed: Optional[int] = None,
    warm_start: bool = True,
    rescue_outliers: bool = True,
    recorder: Optional[Recorder] = None,
) -> IncrementalClusterer:
    """Construct an :class:`IncrementalClusterer` the supported way.

    ``half_life``/``life_span`` build the
    :class:`~repro.forgetting.ForgettingModel`; the other keywords go to
    the clusterer unchanged. ``k`` is required.
    """
    if k is None:
        raise ConfigurationError("k is required")
    return IncrementalClusterer(
        ForgettingModel(half_life=half_life, life_span=life_span),
        k=k, delta=delta, max_iterations=max_iterations, seed=seed,
        warm_start=warm_start, rescue_outliers=rescue_outliers,
        recorder=recorder,
    )


def open_stream(
    *,
    half_life: float = 7.0,
    life_span: Optional[float] = None,
    k: Optional[int] = None,
    delta: float = 0.01,
    max_iterations: int = 30,
    seed: Optional[int] = None,
    warm_start: bool = True,
    rescue_outliers: bool = True,
    recorder: Optional[Recorder] = None,
    vocabulary: Optional[Vocabulary] = None,
    pipeline: Optional[TextPipeline] = None,
    window_days: Optional[float] = None,
    checkpoint: Optional[PathLike] = None,
    resume: Optional[PathLike] = None,
    queue_size: int = 64,
) -> "StreamSession":
    """Open a streaming clustering session (the supported entry point).

    Parameters
    ----------
    half_life / life_span / k / ... :
        Pipeline construction knobs, as in :func:`build_clusterer`.
        With ``resume=`` the checkpoint supplies the pipeline and
        ``k`` is rejected.
    vocabulary / pipeline:
        Text front-end. A vocabulary is always created if absent (the
        durability layer and ``assign("text")`` both need one); the
        pipeline defaults to a standard :class:`TextPipeline`.
    window_days:
        Enables :meth:`StreamSession.feed` windowing (same half-open
        windows as :func:`repro.corpus.streams.iter_batches`).
    checkpoint:
        Path of the durable base checkpoint. Every committed batch is
        made durable before it is published: one fsynced line in the
        log beside the base (its documents, new terms, clock and
        assignment), or — when that line would make the log larger
        than the base — a rewrite of the base. Snapshot versions equal
        log sequences.
    resume:
        Path of an existing checkpoint to :func:`~repro.durability.
        recover` from. The session resumes at the recovered journal
        sequence — snapshot versions continue, gapless, where the
        crashed process stopped. Implies ``checkpoint=resume`` unless
        ``checkpoint`` names a different path.
    queue_size:
        Ingestion queue bound; full queues block producers
        (backpressure).
    """
    if vocabulary is None:
        vocabulary = Vocabulary()
    if pipeline is None:
        pipeline = TextPipeline()

    sequence = 0
    if resume is not None:
        if k is not None:
            raise ConfigurationError(
                "resume= restores the pipeline from the checkpoint; "
                "do not also pass k="
            )
        result = recover(resume, vocabulary=vocabulary, recorder=recorder)
        clusterer = result.clusterer
        sequence = result.sequence
        if checkpoint is None:
            checkpoint = resume
    else:
        clusterer = build_clusterer(
            half_life=half_life, life_span=life_span,
            k=k, delta=delta, max_iterations=max_iterations, seed=seed,
            warm_start=warm_start, rescue_outliers=rescue_outliers,
            recorder=recorder,
        )

    checkpointer: Optional[Checkpointer] = None
    if checkpoint is not None:
        checkpointer = Checkpointer(
            clusterer, vocabulary, checkpoint,
            sequence=sequence, recorder=recorder,
        )

    service = ClusterService(
        clusterer,
        checkpointer=checkpointer,
        vocabulary=vocabulary,
        pipeline=pipeline,
        window_days=window_days,
        queue_size=queue_size,
        version=sequence,
    )
    return StreamSession(service)


class StreamSession:
    """User-facing handle on a running :class:`ClusterService`.

    Everything ingestion-side (:meth:`add`, :meth:`feed`,
    :meth:`flush`, :meth:`tail_jsonl`) funnels into the single writer;
    everything query-side (:meth:`snapshot`, :meth:`assign`,
    :meth:`top_clusters`, :meth:`members`, :meth:`stats`) answers
    lock-free from the latest immutable snapshot. Use as a context
    manager for a clean drain-and-checkpoint shutdown.
    """

    def __init__(self, service: ClusterService) -> None:
        self._service = service

    @property
    def service(self) -> ClusterService:
        """The underlying service (escape hatch for advanced use)."""
        return self._service

    @property
    def clusterer(self) -> IncrementalClusterer:
        """The wrapped pipeline — read-only introspection only; feeding
        it batches directly would bypass the writer."""
        return self._service._clusterer

    @property
    def version(self) -> int:
        return self._service.version

    @property
    def vocabulary(self) -> Vocabulary:
        """The vocabulary this session interns documents into."""
        vocabulary = self._service.vocabulary
        assert vocabulary is not None  # open_stream always attaches one
        return vocabulary

    @property
    def errors(self) -> Tuple[BaseException, ...]:
        return self._service.errors

    # -- ingestion --------------------------------------------------------

    def add(self, documents: Iterable[Document], at_time: float) -> None:
        self._service.add(documents, at_time=at_time)

    def feed(self, document: Document) -> None:
        self._service.feed(document)

    def flush(self) -> ClusterSnapshot:
        return self._service.flush()

    def tail_jsonl(
        self, path: PathLike, poll_interval: float = 0.5
    ) -> None:
        self._service.tail_jsonl(path, poll_interval=poll_interval)

    def serve_http(
        self, port: int = 0, host: str = "127.0.0.1"
    ) -> ServiceHTTPServer:
        return self._service.serve_http(port=port, host=host)

    # -- queries ----------------------------------------------------------

    def snapshot(self) -> ClusterSnapshot:
        return self._service.snapshot()

    def assign(self, query: Query) -> QueryAssignment:
        return self._service.assign(query)

    def top_clusters(self, n: int = 10) -> List[ClusterInfo]:
        return self._service.top_clusters(n)

    def members(self, cluster_id: int) -> Tuple[str, ...]:
        return self._service.members(cluster_id)

    def stats(self) -> SnapshotStats:
        return self._service.stats()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self._service.close()

    @property
    def closed(self) -> bool:
        return self._service.closed

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StreamSession({self._service!r})"


__all__ = [
    "build_clusterer",
    "open_stream",
    "StreamSession",
]
