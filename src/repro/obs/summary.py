"""Aggregation of raw event streams into a report-friendly summary.

:func:`summarize` turns an :class:`~repro.obs.recorder.InMemoryRecorder`'s
event list into counter totals, gauge ranges and span timings (with
percentiles), for ad-hoc inspection of a traced run.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List

from .events import COUNTER, GAUGE, SPAN, Event

#: The span duration percentiles :func:`summarize` reports.
PERCENTILES = (50, 90, 99)


def nearest_rank(ordered: List[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of the ascending ``ordered``
    values: the smallest value at least ``percentile`` percent of them
    do not exceed (``ordered[ceil(p/100 · n) - 1]``)."""
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(events: Iterable[Event]) -> Dict[str, Any]:
    """Aggregate events into ``{"counters", "gauges", "spans"}``.

    * counters: accumulated totals per name;
    * gauges: last value per name (plus min/max over the run);
    * spans: per name, ``count`` / ``total`` / ``mean`` / ``max`` and
      the nearest-rank ``p50`` / ``p90`` / ``p99`` durations in
      seconds.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    spans: Dict[str, Dict[str, float]] = {}
    durations: Dict[str, List[float]] = {}
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
            durations.setdefault(event.name, []).append(event.value)
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
    for name, stats in spans.items():
        stats["mean"] = stats["total"] / stats["count"]
        ordered = sorted(durations[name])
        for percentile in PERCENTILES:
            stats[f"p{percentile}"] = nearest_rank(ordered, percentile)
    return {"counters": counters, "gauges": gauges, "spans": spans}
