"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
catching unrelated bugs::

    try:
        clusterer.process_window(window)
    except repro.ReproError as exc:
        log.error("clustering failed: %s", exc)
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter value was supplied (e.g. ``beta <= 0``)."""


class EmptyCorpusError(ReproError):
    """An operation required documents but the corpus/window was empty."""


class UnknownDocumentError(ReproError, KeyError):
    """A document id was referenced that the repository does not hold."""


class DuplicateDocumentError(ReproError, ValueError):
    """A document id was added twice to the same repository."""


class AssignmentMismatchError(ReproError, ValueError):
    """A recorded assignment does not fit the documents it is applied to
    (wrong length, or a cluster id outside ``-1..k-1``)."""


class ClusteringError(ReproError):
    """The clustering procedure could not run (e.g. fewer docs than K)."""


class NotFittedError(ReproError, RuntimeError):
    """A result was requested before the producing computation ran."""


class CheckpointError(ReproError):
    """A checkpoint file is missing fields, corrupt, or wrong version."""


class JournalError(ReproError):
    """A batch journal is unreadable or was asked to do the impossible."""


class VocabularyFrozenError(ReproError, RuntimeError):
    """A term was added to a vocabulary after it was frozen."""


class ServiceClosedError(ReproError, RuntimeError):
    """Work was submitted to a streaming service that has shut down."""


class ServiceDegradedError(ServiceClosedError):
    """A commit hook failed after its batch committed in memory.

    The hook journals the batch or publishes its snapshot, so the
    in-memory state has diverged from the journal or from what readers
    see. The service stops ingesting (reads keep answering from the
    last published snapshot). Subclasses
    :class:`ServiceClosedError` so producers treating the service as
    unavailable keep working unchanged.
    """
