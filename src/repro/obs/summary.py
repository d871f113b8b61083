"""Aggregation of raw event streams into a report-friendly summary.

:func:`summarize` turns an :class:`~repro.obs.recorder.InMemoryRecorder`'s
event list into counter totals, gauge ranges and span timings, for
ad-hoc inspection of a traced run.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from .events import COUNTER, GAUGE, SPAN, Event


def summarize(events: Iterable[Event]) -> Dict[str, Any]:
    """Aggregate events into ``{"counters", "gauges", "spans"}``.

    * counters: accumulated totals per name;
    * gauges: last value per name (plus min/max over the run);
    * spans: per name, ``count`` / ``total`` / ``mean`` / ``max``
      durations in seconds.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    spans: Dict[str, Dict[str, float]] = {}
    for event in events:
        if event.kind == COUNTER:
            counters[event.name] = counters.get(event.name, 0.0) + event.value
        elif event.kind == GAUGE:
            stats = gauges.get(event.name)
            if stats is None:
                gauges[event.name] = {
                    "last": event.value,
                    "min": event.value,
                    "max": event.value,
                }
            else:
                stats["last"] = event.value
                stats["min"] = min(stats["min"], event.value)
                stats["max"] = max(stats["max"], event.value)
        elif event.kind == SPAN:
            stats = spans.get(event.name)
            if stats is None:
                spans[event.name] = {
                    "count": 1,
                    "total": event.value,
                    "max": event.value,
                }
            else:
                stats["count"] += 1
                stats["total"] += event.value
                stats["max"] = max(stats["max"], event.value)
    for stats in spans.values():
        stats["mean"] = stats["total"] / stats["count"]
    return {"counters": counters, "gauges": gauges, "spans": spans}
