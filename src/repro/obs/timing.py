"""Timed spans.

A :class:`Span` reads the wall clock (``time.perf_counter``) only when
its recorder is enabled, and emits the phase's duration as a ``span``
event on exit. Under the default
:class:`~repro.obs.recorder.NullRecorder` entering and leaving a span
does nothing, so instrumentation costs no clock reads. Spans are the
one way the library reports how long a phase took: to read phase times,
collect the events with an
:class:`~repro.obs.recorder.InMemoryRecorder`.
"""

from __future__ import annotations

import time
from types import TracebackType
from typing import TYPE_CHECKING, Any, Dict, Optional, Type

from .events import SPAN, Event

if TYPE_CHECKING:
    from .recorder import Recorder


class Span:
    """Context manager timing one phase; emits a ``span`` event on exit.

    >>> recorder = InMemoryRecorder()
    >>> with Span(recorder, "statistics.observe", {"batch": 12}):
    ...     do_work()
    >>> recorder.total("statistics.observe")  # seconds
    """

    __slots__ = ("_recorder", "name", "tags", "_start")

    def __init__(
        self,
        recorder: "Recorder",
        name: str,
        tags: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.tags = tags if tags is not None else {}
        self._start = 0.0

    def __enter__(self) -> "Span":
        if self._recorder.enabled:
            self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        if self._recorder.enabled:
            duration = time.perf_counter() - self._start
            tags = dict(self.tags)
            if exc_type is not None:
                tags["error"] = exc_type.__name__
            self._recorder.emit(Event(self.name, SPAN, duration, tags))
        return False
