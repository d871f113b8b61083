"""reprolint — project-specific invariant linter for the repro package.

The paper's correctness rests on numerical invariants that ordinary
linters cannot see: the O(1) ``avg_sim`` maintenance of Eq. 19-26, the
multiplicative ``λ^Δτ`` decay of Eq. 27-29, and the ``ε = λ^γ`` expiry
threshold. A bug in any of them does not crash — it silently skews
every later clustering, which in a topic-tracking system masquerades as
"topic drift". reprolint makes the *coding patterns* that protect those
invariants machine-checked at analysis time:

========  ============================================================
REP001    No wall-clock timestamps in ``core``/``forgetting`` numerics
          (logical time ``τ`` only, per Eq. 1).
REP002    No ``==``/``!=`` float-literal comparisons outside the
          allowlisted exact sentinels (0.0 everywhere; the ``λ^Δτ ==
          1.0`` decay no-op in the forgetting layer).
REP003    Pipelines (``IncrementalClusterer``/``NonIncrementalClusterer``)
          are built through ``repro.api`` outside the library and tests.
REP004    Public pipeline entry points open an ``repro.obs`` span.
REP005    ``CorpusStatistics`` internals are never mutated outside the
          forgetting package.
REP006    Checkpoint and journal files are written atomically, through
          ``repro.durability``.
REP007    The library (``src/``) never imports test code (``tests``).
========  ============================================================

Run it as ``python -m reprolint src tests`` (with ``tools`` on
``PYTHONPATH``). Suppress a single finding with a trailing comment::

    t0 = time.time()  # reprolint: disable=REP001

or a whole file with a top-of-file comment::

    # reprolint: disable-file=REP002

Each rule's rationale (with the paper equations it protects) is in
``docs/CONTRIBUTING.md`` and on ``python -m reprolint --list-rules``.
"""

from .engine import FileContext, Violation, lint_paths, lint_source
from .rules import ALL_RULES

__version__ = "1.0.0"

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Violation",
    "lint_paths",
    "lint_source",
    "__version__",
]
