"""The host-speed reference the end-to-end timings are adjusted by.

On a shared virtual machine the CPU's speed drifts by up to 2× over
seconds to minutes as other tenants come and go, and a run cannot outlast
those phases. So the benchmark times a fixed slice of work between the
program's batches, while the program is idle, and divides each rep's
timings by the rep's *host factor*: the slices' mean time over
:data:`NOMINAL_S`. The reported times are then what the rep would have
taken on a host where a slice takes :data:`NOMINAL_S`.

A slice lower-cases and tokenizes a fixed text, counts the tokens in a
dictionary in a Python loop and sorts the counts: the kind of work the
program's text and statistics layers do. It uses nothing of the program,
so a faster program still reads faster. The collector is paused and a
slice is timed on the thread's CPU clock, so neither a reader thread
holding the interpreter lock nor the program's garbage can stretch it; a
slower host does, since on such a machine the CPU time of a fixed piece
of work grows with its wall time.
"""

from __future__ import annotations

import gc
import random
import re
import statistics
import time
from typing import Dict, List

#: A slice's time on a 2-vCPU Intel Xeon virtual machine (KVM),
#: Python 3.11, in that machine's fast phase.
NOMINAL_S = 0.008

_TOKEN = re.compile(r"[a-z]+")


def _text() -> str:
    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                     for _ in range(3 + i % 9)) for i in range(20000)]
    return " ".join(rng.choice(words).title() + rng.choice(", . ; ")
                    for _ in range(6000))


_TEXT = _text()


class HostReference:
    """Slices timed during one rep, and the rep's host factor."""

    def __init__(self) -> None:
        self.slices: List[float] = []

    def sample(self) -> None:
        """Time one slice."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.thread_time()
            counts: Dict[str, int] = {}
            for token in _TOKEN.findall(_TEXT.lower()):
                counts[token] = counts.get(token, 0) + 1
            sorted(counts.items(), key=lambda item: (-item[1], item[0]))
            self.slices.append(time.thread_time() - start)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Mean slice time over :data:`NOMINAL_S` (above 1 when the host
        ran slower than that); 1.0 before any slice."""
        if not self.slices:
            return 1.0
        return statistics.fmean(self.slices) / NOMINAL_S
