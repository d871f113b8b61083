"""The REP001-REP007 rules.

Every rule documents the paper invariant it protects in ``rationale``
(surfaced by ``--list-rules`` and ``docs/CONTRIBUTING.md``). Rules are
deliberately conservative: each one flags a *pattern that has broken a
real topic-tracking system*, and each has an inline suppression escape
hatch (``# reprolint: disable=REPnnn``) for the rare justified use.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .engine import FileContext, Rule, Violation

# ---------------------------------------------------------------------------
# REP001 — logical time only in the numerics
# ---------------------------------------------------------------------------

#: Dotted suffixes of wall-clock *timestamp* sources. Duration timers
#: (``time.perf_counter``, ``time.monotonic``) are allowed: they measure
#: elapsed seconds for observability, not positions on the τ axis.
_WALL_CLOCK_SUFFIXES: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: Packages whose numerics must run on the logical clock ``τ``.
_LOGICAL_TIME_PACKAGES: Tuple[str, ...] = (
    "repro/core",
    "repro/forgetting",
)


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local alias -> dotted origin for every import in the module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                aliases[item.asname or item.name] = (
                    f"{node.module}.{item.name}"
                )
    return aliases


def _dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a call target to a dotted path through import aliases."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = aliases.get(current.id, current.id)
    parts.append(root)
    return ".".join(reversed(parts))


class WallClockRule(Rule):
    code = "REP001"
    name = "no-wall-clock-in-numerics"
    rationale = (
        "Eq. 1 defines document weight as λ^(τ-T) over the *logical* "
        "batch clock τ; Eq. 27-29 advance every statistic by λ^Δτ. A "
        "wall-clock timestamp (time.time, datetime.now) leaking into "
        "repro.core or repro.forgetting silently mixes two time axes, "
        "which skews every weight without crashing. Duration timers "
        "(time.perf_counter/monotonic) stay allowed: they measure "
        "elapsed seconds for observability, never positions on τ."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if not any(context.in_path(pkg) for pkg in _LOGICAL_TIME_PACKAGES):
            return
        aliases = _import_aliases(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func, aliases)
            if dotted is None:
                continue
            if any(
                dotted == suffix or dotted.endswith("." + suffix)
                for suffix in _WALL_CLOCK_SUFFIXES
            ):
                yield self.violation(
                    context, node,
                    f"wall-clock call {dotted}() in a logical-time "
                    f"package; pass the batch clock τ explicitly (Eq. 1)",
                )


# ---------------------------------------------------------------------------
# REP002 — float-literal equality
# ---------------------------------------------------------------------------

#: Files allowed to compare against 1.0: the decay no-op short-circuit
#: (λ^Δτ == 1.0 iff Δτ == 0, which ** produces exactly).
_DECAY_NOOP_FILES: Tuple[str, ...] = (
    "repro/forgetting/statistics.py",
    "repro/forgetting/backends/columnar.py",
)


def _float_literal(node: ast.AST) -> Optional[float]:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, float)
    ):
        value = node.operand.value
        return -value if isinstance(node.op, ast.USub) else value
    return None


class FloatEqualityRule(Rule):
    code = "REP002"
    name = "no-float-literal-equality"
    rationale = (
        "The incremental statistics (Eq. 19-29) accumulate float "
        "rounding, so `x == 0.3`-style comparisons flip on drift that "
        "is invisible in tests. Two sentinels are exact by IEEE-754 "
        "and stay allowed: comparisons against 0.0 (the structural "
        "non-zero invariant of vectors/sparse.py — components are "
        "*dropped*, never stored as zero) and the λ^Δτ == 1.0 decay "
        "no-op in the forgetting layer (Δτ == 0 gives exactly 1.0). "
        "Everything else needs math.isclose or an explicit suppression. "
        "Test suites are exempt: their exact equalities are deliberate "
        "bit-parity assertions between engines/backends."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.is_test_code:
            return
        decay_file = any(
            context.in_path(name) for name in _DECAY_NOOP_FILES
        )
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            eq_ops = [
                op for op in node.ops if isinstance(op, (ast.Eq, ast.NotEq))
            ]
            if not eq_ops:
                continue
            for operand in operands:
                literal = _float_literal(operand)
                if literal is None:
                    continue
                if literal == 0.0:
                    continue
                if literal == 1.0 and decay_file:
                    continue
                yield self.violation(
                    context, node,
                    f"float equality against {literal!r}; use "
                    f"math.isclose (or suppress for a proven-exact "
                    f"sentinel)",
                )
                break


# ---------------------------------------------------------------------------
# REP003 — api-only pipeline construction
# ---------------------------------------------------------------------------

#: Pipeline classes applications must build through repro.api
#: (open_stream()/build_clusterer()) instead of constructing directly.
#: The library itself (anything under repro/) is the home package.
_PIPELINE_CLASSES: Tuple[str, ...] = (
    "IncrementalClusterer",
    "NonIncrementalClusterer",
)

_PIPELINE_HOME_PACKAGE = "repro"


class ApiOnlyRule(Rule):
    code = "REP003"
    name = "api-only-pipeline-construction"
    rationale = (
        "Direct IncrementalClusterer(...) construction outside the "
        "library bypasses repro.api (open_stream()/build_clusterer()), "
        "the documented entry point that wires configuration, "
        "durability and the service layer consistently. Tests and "
        "benchmarks are exempt — parity suites construct pipelines on "
        "purpose."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.is_test_code or context.in_path(_PIPELINE_HOME_PACKAGE):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                called = func.attr
            elif isinstance(func, ast.Name):
                called = func.id
            else:
                continue
            if called in _PIPELINE_CLASSES:
                yield self.violation(
                    context, node,
                    f"direct construction of {called} outside the "
                    f"library; use repro.api.open_stream() (or "
                    f"build_clusterer()) so configuration, durability "
                    f"and the service layer stay wired consistently",
                )


# ---------------------------------------------------------------------------
# REP004 — pipeline entry points open an obs span
# ---------------------------------------------------------------------------

#: ``(file suffix, qualified function name)`` of every public pipeline
#: entry point. Each must open a repro.obs span somewhere in its body.
_SPAN_ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("repro/core/incremental.py", "IncrementalClusterer.process_batch"),
    ("repro/core/incremental.py", "NonIncrementalClusterer.process_batch"),
    ("repro/core/kmeans.py", "NoveltyKMeans.fit"),
    ("repro/forgetting/statistics.py", "CorpusStatistics.observe"),
    ("repro/forgetting/statistics.py", "CorpusStatistics.expire"),
    ("repro/forgetting/statistics.py", "CorpusStatistics.from_scratch"),
    ("repro/text/pipeline.py", "TextPipeline.batch_term_frequencies"),
    ("repro/persistence.py", "save_checkpoint"),
    ("repro/persistence.py", "load_checkpoint"),
    ("repro/durability/recovery.py", "recover"),
    ("repro/service/service.py", "ClusterService._ingest"),
    ("repro/service/snapshot.py", "ClusterSnapshot.from_clusterer"),
)


def _opens_span(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            if not isinstance(expr, ast.Call):
                continue
            func = expr.func
            if isinstance(func, ast.Name) and func.id == "Span":
                return True
            if isinstance(func, ast.Attribute) and func.attr == "span":
                return True
    return False


class SpanRequiredRule(Rule):
    code = "REP004"
    name = "pipeline-entry-points-open-spans"
    rationale = (
        "PR 1 made the pipeline observable so a state-update bug shows "
        "up as a phase anomaly instead of unexplained topic drift; "
        "that only works if every public entry point actually opens a "
        "span. This rule pins the list: each named entry point must "
        "contain `with Span(...)` (or `recorder.span(...)`), and must "
        "still exist — renaming one without updating the lint table is "
        "itself a finding, so the observability surface cannot rot "
        "silently."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        expected = [
            qualname for suffix, qualname in _SPAN_ENTRY_POINTS
            if context.in_path(suffix)
        ]
        if not expected:
            return
        functions: Dict[str, ast.AST] = {}
        for top in context.tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[top.name] = top
            elif isinstance(top, ast.ClassDef):
                for member in top.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        functions[f"{top.name}.{member.name}"] = member
        for qualname in expected:
            function = functions.get(qualname)
            if function is None:
                yield self.violation(
                    context, context.tree,
                    f"pipeline entry point {qualname} not found; update "
                    f"reprolint's _SPAN_ENTRY_POINTS if it moved",
                )
            elif not _opens_span(function):
                yield self.violation(
                    context, function,
                    f"pipeline entry point {qualname} opens no obs span; "
                    f"wrap its phases in `with Span(recorder, ...)`",
                )


# ---------------------------------------------------------------------------
# REP005 — CorpusStatistics internals stay inside the forgetting package
# ---------------------------------------------------------------------------

#: Local names conventionally bound to a CorpusStatistics instance.
_STATS_NAMES = frozenset({
    "statistics", "stats", "corpus_statistics", "corpus_stats",
})

#: Method names that mutate the container they are called on.
_MUTATOR_METHODS = frozenset({
    "update", "pop", "clear", "setdefault", "add", "remove", "discard",
    "extend", "append", "insert", "popitem",
})

_FORGETTING_PACKAGE = "repro/forgetting"


def _is_stats_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _STATS_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _STATS_NAMES
    return False


def _private_stats_attribute(node: ast.AST) -> Optional[str]:
    """``stats._docs``-shaped expression -> the private attribute name."""
    target = node
    if isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and target.attr.startswith("_")
        and not target.attr.startswith("__")
        and _is_stats_expr(target.value)
    ):
        return target.attr
    return None


class StatisticsEncapsulationRule(Rule):
    code = "REP005"
    name = "no-statistics-internal-mutation"
    rationale = (
        "CorpusStatistics guards its state transitions: observe() "
        "validates the whole batch before mutating anything (the "
        "transactional-ingestion invariant), advance_to() refuses a "
        "backwards clock, and every mutation keeps the backend's "
        "tdw/term-mass aggregates consistent with Eq. 27-29. Writing "
        "to `statistics._docs`, `statistics._now` or `statistics."
        "_backend` from outside repro.forgetting skips those guards "
        "and desynchronises the aggregates from the document registry "
        "— the exact bug class the hypothesis parity suite exists to "
        "rule out. Tests are exempt (they simulate drift on purpose)."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.is_test_code or context.in_path(_FORGETTING_PACKAGE):
            return
        for node in ast.walk(context.tree):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS
                ):
                    attr = _private_stats_attribute(func.value)
                    if attr is not None:
                        yield self.violation(
                            context, node,
                            f"mutating CorpusStatistics internal "
                            f"'{attr}' via .{func.attr}(); go through "
                            f"the public observe/expire/remove API",
                        )
                continue
            for target in targets:
                attr = _private_stats_attribute(target)
                if attr is not None:
                    yield self.violation(
                        context, node,
                        f"write to CorpusStatistics internal '{attr}' "
                        f"outside repro.forgetting; go through the "
                        f"public observe/expire/remove API",
                    )


# ---------------------------------------------------------------------------
# REP006 — checkpoint/journal files are written atomically
# ---------------------------------------------------------------------------

#: The only package allowed to open durable state files for writing.
_DURABILITY_PACKAGE = "repro/durability"

#: Substrings marking an expression as a durable-state path.
_DURABLE_MARKERS = ("checkpoint", "journal")

#: Writing open() modes ("r", "rb", "rt" stay allowed).
_WRITE_MODE_CHARS = frozenset("wax+")


def _mentions_durable_state(node: ast.AST) -> bool:
    """True when any identifier/attribute/literal inside ``node`` names
    a checkpoint or journal."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            text = sub.id
        elif isinstance(sub, ast.Attribute):
            text = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            text = sub.value
        else:
            continue
        lowered = text.lower()
        if any(marker in lowered for marker in _DURABLE_MARKERS):
            return True
    return False


def _open_write_mode(node: ast.Call) -> Optional[str]:
    """The mode string when ``node`` is an ``open()``-style call that
    writes; ``None`` for reads or non-open calls."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id != "open":
            return None
        path_index = 0
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        path_index = -1  # pathlib-style: the path is the receiver
    else:
        return None
    mode: Optional[str] = None
    positional = node.args[path_index + 1:] if path_index >= 0 else node.args
    if positional and isinstance(positional[0], ast.Constant) \
            and isinstance(positional[0].value, str):
        mode = positional[0].value
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant) \
                and isinstance(keyword.value.value, str):
            mode = keyword.value.value
    if mode is None:
        return None
    if _WRITE_MODE_CHARS.intersection(mode):
        return mode
    return None


class AtomicCheckpointWritesRule(Rule):
    code = "REP006"
    name = "atomic-checkpoint-writes"
    rationale = (
        "The crash-safety guarantee (docs/DURABILITY.md) holds because "
        "every checkpoint and journal byte reaches disk through "
        "repro.durability.atomic: temp file + fsync + os.replace, .bak "
        "rotation, payload checksum. A plain `open(path, 'w')` + "
        "json.dump to a checkpoint/journal path truncates the previous "
        "good state *before* the new one exists — one crash in that "
        "window and recovery has nothing to load; this exact bug "
        "motivated the durability PR. The rule flags write-mode "
        "open()/Path.open()/write_text() calls whose path expression "
        "or enclosing function names a checkpoint or journal, outside "
        "repro.durability. Tests and benchmarks are exempt: they "
        "corrupt state files on purpose."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.is_test_code or context.in_path(_DURABILITY_PACKAGE):
            return
        self._function_stack: List[str] = []
        yield from self._visit(context, context.tree)

    def _visit(
        self, context: FileContext, node: ast.AST
    ) -> Iterator[Violation]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._function_stack.append(node.name)
            for child in ast.iter_child_nodes(node):
                yield from self._visit(context, child)
            self._function_stack.pop()
            return
        if isinstance(node, ast.Call):
            yield from self._check_call(context, node)
        for child in ast.iter_child_nodes(node):
            yield from self._visit(context, child)

    def _in_durable_function(self) -> bool:
        return any(
            marker in name.lower()
            for name in self._function_stack
            for marker in _DURABLE_MARKERS
        )

    def _check_call(
        self, context: FileContext, node: ast.Call
    ) -> Iterator[Violation]:
        func = node.func
        # foo.write_text(...) on a checkpoint/journal-named receiver
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "write_text"
            and (
                _mentions_durable_state(func.value)
                or self._in_durable_function()
            )
        ):
            yield self.violation(
                context, node,
                "non-atomic write_text() to a checkpoint/journal path; "
                "route it through repro.durability.atomic",
            )
            return
        mode = _open_write_mode(node)
        if mode is None:
            return
        if isinstance(func, ast.Attribute):
            durable_path = _mentions_durable_state(func.value)
        else:
            durable_path = bool(node.args) and _mentions_durable_state(
                node.args[0]
            )
        if durable_path or self._in_durable_function():
            yield self.violation(
                context, node,
                f"non-atomic open(..., {mode!r}) of a checkpoint/"
                f"journal path; route the write through "
                f"repro.durability.atomic (temp file + fsync + "
                f"os.replace)",
            )


# ---------------------------------------------------------------------------
# REP007 — the library never imports test code
# ---------------------------------------------------------------------------

#: The library's source tree; nothing under it may import the tests.
_LIBRARY_ROOT = "src"

#: The top-level package of the test suite and its oracles.
_TEST_PACKAGE = "tests"


def _names_test_package(module: Optional[str]) -> bool:
    return module is not None and (
        module == _TEST_PACKAGE or module.startswith(_TEST_PACKAGE + ".")
    )


class NoTestImportsRule(Rule):
    code = "REP007"
    name = "library-never-imports-tests"
    rationale = (
        "The paper's line-by-line reference implementations (the dense "
        "engine, the dict statistics backend, SparseVector and the "
        "paper-literal w⃗ of Eq. 12-16) live in tests/oracles, where the "
        "parity suites hold the production path to them. An "
        "`import tests...` under src/ would put an oracle back into the "
        "library: a second implementation of one layer that the "
        "installed package cannot even import."
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if not context.in_path(_LIBRARY_ROOT):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                modules = [item.name for item in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if _names_test_package(module):
                    yield self.violation(
                        context, node,
                        f"library code imports {module!r}; test oracles "
                        f"stay in tests/, the library keeps one "
                        f"implementation per layer",
                    )


ALL_RULES: Sequence[Rule] = (
    WallClockRule(),
    FloatEqualityRule(),
    ApiOnlyRule(),
    SpanRequiredRule(),
    StatisticsEncapsulationRule(),
    AtomicCheckpointWritesRule(),
    NoTestImportsRule(),
)
