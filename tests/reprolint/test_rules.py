"""Fixture-file suite for reprolint.

Each rule gets (a) a minimal violating snippet that must fire, (b) the
allowlisted pattern that must stay quiet, and (c) a suppression-comment
check. The snippets are linted in-memory via :func:`lint_source` with a
crafted ``path`` argument, because every rule scopes itself by path.
"""

from __future__ import annotations

from reprolint import lint_source

CORE_PATH = "src/repro/core/example.py"
FORGETTING_PATH = "src/repro/forgetting/example.py"
NEUTRAL_PATH = "src/repro/eval/example.py"
TEST_PATH = "tests/core/test_example.py"


def codes(path, source):
    return [violation.code for violation in lint_source(path, source)]


# -- REP001: no wall-clock in the numerics --------------------------------

def test_rep001_fires_on_time_time_in_core():
    assert "REP001" in codes(CORE_PATH, "import time\nt = time.time()\n")


def test_rep001_fires_on_aliased_datetime_now():
    source = "from datetime import datetime as dt\nstamp = dt.now()\n"
    assert "REP001" in codes(FORGETTING_PATH, source)


def test_rep001_fires_on_from_import_of_time():
    source = "from time import time\nt = time()\n"
    assert "REP001" in codes(CORE_PATH, source)


def test_rep001_allows_perf_counter():
    # duration timers measure elapsed seconds, not positions on τ
    source = "import time\nt0 = time.perf_counter()\n"
    assert codes(CORE_PATH, source) == []


def test_rep001_ignores_wall_clock_outside_numeric_packages():
    assert codes("src/repro/obs/sinks.py", "import time\nt = time.time()\n") == []


def test_rep001_suppression_comment():
    source = "import time\nt = time.time()  # reprolint: disable=REP001\n"
    assert codes(CORE_PATH, source) == []


# -- REP002: no float-literal equality ------------------------------------

def test_rep002_fires_on_float_equality():
    assert "REP002" in codes(NEUTRAL_PATH, "ok = x == 0.3\n")


def test_rep002_fires_on_not_equal_and_negative_literal():
    assert "REP002" in codes(NEUTRAL_PATH, "ok = x != -2.5\n")


def test_rep002_allows_zero_sentinel():
    # the structural invariant of sparse vectors: zeros are dropped
    assert codes("src/repro/vectors/arrays.py", "ok = value == 0.0\n") == []


def test_rep002_allows_decay_noop_in_forgetting_layer():
    source = "skip = factor == 1.0\n"
    assert codes("src/repro/forgetting/backends/columnar.py", source) == []


def test_rep002_fires_on_one_outside_decay_allowlist():
    assert "REP002" in codes(NEUTRAL_PATH, "ok = x == 1.0\n")


def test_rep002_exempts_test_code():
    # parity suites assert exact bit-equality between engines on purpose
    assert codes(TEST_PATH, "assert a == 0.125\n") == []


def test_rep002_suppression_comment():
    source = "ok = x == 0.3  # reprolint: disable=REP002\n"
    assert codes(NEUTRAL_PATH, source) == []


# -- REP003: api-only pipeline construction -------------------------------

def test_rep003_suppression_comment():
    source = (
        "c = IncrementalClusterer(model, k=4)  # reprolint: disable=REP003\n"
    )
    assert codes("apps/indexer/main.py", source) == []


def test_rep003_fires_on_pipeline_construction_outside_library():
    source = (
        "from repro import IncrementalClusterer\n"
        "clusterer = IncrementalClusterer(model, k=4)\n"
    )
    assert "REP003" in codes("apps/indexer/main.py", source)
    assert "REP003" in codes(
        "scripts/run.py", "c = NonIncrementalClusterer(model, k=4)\n"
    )


def test_rep003_allows_pipeline_construction_inside_library_and_tests():
    source = "clusterer = IncrementalClusterer(model, config)\n"
    assert codes("src/repro/api.py", source) == []
    assert codes(NEUTRAL_PATH, source) == []
    assert codes(TEST_PATH, source) == []


def test_rep003_pipeline_message_points_to_api():
    violations = lint_source(
        "apps/main.py", "c = IncrementalClusterer(model, k=4)\n"
    )
    assert any(
        "repro.api.open_stream" in violation.message
        for violation in violations
    )


# -- REP004: pipeline entry points open spans -----------------------------

SPANLESS_ENTRY = (
    "class IncrementalClusterer:\n"
    "    def process_batch(self, docs):\n"
    "        return docs\n"
    "class NonIncrementalClusterer:\n"
    "    def process_batch(self, docs):\n"
    "        with Span(recorder, 'cluster'):\n"
    "            return docs\n"
)


def test_rep004_fires_on_spanless_entry_point():
    violations = lint_source("src/repro/core/incremental.py", SPANLESS_ENTRY)
    rep004 = [v for v in violations if v.code == "REP004"]
    assert len(rep004) == 1
    assert "IncrementalClusterer.process_batch" in rep004[0].message


def test_rep004_fires_when_entry_point_disappears():
    source = "class IncrementalClusterer:\n    pass\n"
    violations = lint_source("src/repro/core/incremental.py", source)
    assert any(
        v.code == "REP004" and "not found" in v.message for v in violations
    )


def test_rep004_accepts_recorder_span_method():
    source = (
        "class TextPipeline:\n"
        "    def batch_term_frequencies(self, texts):\n"
        "        with resolve(None).span('text.batch_terms'):\n"
        "            return [self.term_frequencies(t) for t in texts]\n"
    )
    violations = lint_source("src/repro/text/pipeline.py", source)
    assert [v for v in violations if v.code == "REP004"] == []


def test_rep004_ignores_unlisted_files():
    assert codes(NEUTRAL_PATH, "def process_batch():\n    pass\n") == []


def test_rep004_file_suppression_comment():
    source = "# reprolint: disable-file=REP004\n" + SPANLESS_ENTRY
    violations = lint_source("src/repro/core/incremental.py", source)
    assert [v for v in violations if v.code == "REP004"] == []


# -- REP005: CorpusStatistics encapsulation -------------------------------

def test_rep005_fires_on_private_attribute_write():
    assert "REP005" in codes(NEUTRAL_PATH, "stats._now = 4.0\n")


def test_rep005_fires_on_private_mapping_mutation():
    source = "clusterer.statistics._docs.update({'d': 1})\n"
    assert "REP005" in codes(NEUTRAL_PATH, source)


def test_rep005_fires_on_subscript_and_del():
    assert "REP005" in codes(NEUTRAL_PATH, "statistics._docs['d'] = doc\n")
    assert "REP005" in codes(NEUTRAL_PATH, "del statistics._docs['d']\n")


def test_rep005_allows_public_api_and_reads():
    source = (
        "stats.observe(batch, at_time=now)\n"
        "count = len(stats._docs)\n"
        "stats.recorder = recorder\n"
    )
    assert codes(NEUTRAL_PATH, source) == []


def test_rep005_allows_forgetting_package_and_tests():
    source = "self._now = 4.0\nstats._now = 4.0\n"
    assert codes(FORGETTING_PATH, source) == []
    assert codes(TEST_PATH, source) == []


def test_rep005_suppression_comment():
    source = "stats._now = 4.0  # reprolint: disable=REP005\n"
    assert codes(NEUTRAL_PATH, source) == []


def test_rep004_covers_durability_entry_points():
    # persistence and recovery are listed entry points now: a spanless
    # recover() must fire just like a spanless process_batch()
    source = "def recover(path):\n    return path\n"
    violations = lint_source("src/repro/durability/recovery.py", source)
    assert any(v.code == "REP004" for v in violations)
    spanned = (
        "def recover(path):\n"
        "    with Span(recorder, 'durability.recover'):\n"
        "        return path\n"
    )
    violations = lint_source("src/repro/durability/recovery.py", spanned)
    assert [v for v in violations if v.code == "REP004"] == []


# -- REP006: checkpoint/journal writes must be atomic ----------------------

DURABILITY_PATH = "src/repro/durability/atomic.py"


def test_rep006_fires_on_open_w_of_checkpoint_path():
    source = (
        "import json\n"
        "with open(checkpoint_path, 'w') as handle:\n"
        "    json.dump(state, handle)\n"
    )
    assert "REP006" in codes(NEUTRAL_PATH, source)


def test_rep006_fires_on_mode_keyword_and_append():
    assert "REP006" in codes(
        NEUTRAL_PATH, "h = open(journal_file, mode='a')\n"
    )


def test_rep006_fires_on_pathlib_open_and_write_text():
    assert "REP006" in codes(
        NEUTRAL_PATH, "h = self.checkpoint_path.open('w')\n"
    )
    assert "REP006" in codes(
        NEUTRAL_PATH, "state.journal.write_text(payload)\n"
    )


def test_rep006_fires_inside_checkpoint_named_function():
    # the path variable gives nothing away, but the function name does
    source = (
        "def save_checkpoint(target):\n"
        "    with open(target, 'w') as handle:\n"
        "        handle.write(payload)\n"
    )
    assert "REP006" in codes(NEUTRAL_PATH, source)


def test_rep006_fires_on_string_literal_path():
    source = "h = open('state.checkpoint.json', 'w')\n"
    assert "REP006" in codes(NEUTRAL_PATH, source)


def test_rep006_allows_reads_and_unrelated_writes():
    source = (
        "a = open(checkpoint_path)\n"
        "b = open(checkpoint_path, 'r')\n"
        "c = open(report_path, 'w')\n"
        "d = output.write_text(payload)\n"
    )
    assert codes(NEUTRAL_PATH, source) == []


def test_rep006_allows_durability_package_and_tests():
    source = "h = open(checkpoint_path, 'w')\n"
    assert codes(DURABILITY_PATH, source) == []
    assert codes(TEST_PATH, source) == []


def test_rep006_suppression_comment():
    source = (
        "h = open(checkpoint_path, 'w')  # reprolint: disable=REP006\n"
    )
    assert codes(NEUTRAL_PATH, source) == []


# -- REP007: the library never imports test code ---------------------------

def test_rep007_fires_on_import_of_tests_package():
    assert "REP007" in codes(NEUTRAL_PATH, "import tests.oracles\n")
    assert "REP007" in codes(NEUTRAL_PATH, "import tests\n")


def test_rep007_fires_on_from_import_of_an_oracle():
    source = "from tests.oracles.sparse import SparseVector\n"
    assert "REP007" in codes(CORE_PATH, source)
    assert "REP007" in codes(NEUTRAL_PATH, "from tests import oracles\n")


def test_rep007_fires_on_nested_import():
    source = "def f():\n    from tests.oracles import DenseEngine\n"
    assert "REP007" in codes(NEUTRAL_PATH, source)


def test_rep007_allows_lookalike_and_relative_imports():
    source = (
        "import testscenarios\n"
        "from .tests import helper\n"
        "from repro.tests_support import x\n"
    )
    assert codes(NEUTRAL_PATH, source) == []


def test_rep007_ignores_code_outside_src():
    source = "from tests.oracles import DenseEngine\n"
    assert codes(TEST_PATH, source) == []
    assert codes("benchmarks/bench_example.py", source) == []


def test_rep007_suppression_comment():
    source = "import tests.oracles  # reprolint: disable=REP007\n"
    assert codes(NEUTRAL_PATH, source) == []


# -- engine mechanics ------------------------------------------------------

def test_syntax_error_reports_rep000():
    violations = lint_source(NEUTRAL_PATH, "def broken(:\n")
    assert [v.code for v in violations] == ["REP000"]


def test_disable_all_suppresses_everything():
    source = "# reprolint: disable-file=all\nimport time\nt = time.time()\n"
    assert codes(CORE_PATH, source) == []


def test_marker_inside_string_is_inert():
    source = 's = "# reprolint: disable=REP001"\nimport time\nt = time.time()\n'
    assert "REP001" in codes(CORE_PATH, source)


def test_violation_render_format():
    violations = lint_source(CORE_PATH, "import time\nt = time.time()\n")
    rendered = violations[0].render()
    assert rendered.startswith(f"{CORE_PATH}:2:")
    assert "REP001" in rendered
