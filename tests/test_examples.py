"""The example scripts run end to end against the public API.

Each script is run as its own process, the way a reader of ``examples/``
runs it, on a reduced workload where it takes options.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, expected", [
    ("custom_corpus.py", [], "medoid:"),
    ("quickstart.py", [], "topics detected:"),
    ("pipeline_trace.py", [], "JSONL trace:"),
    ("news_stream_monitor.py", ["--weeks", "3"], "as their coverage ends"),
    ("hot_topic_detection.py", [], "macro F1"),
    # window 4 (the default) is the smallest; GAC takes most of the run
    ("baseline_comparison.py", [], "F2ICM (predecessor)"),
])
def test_example_runs(script, args, expected, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env["TMPDIR"] = str(tmp_path)
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert expected in completed.stdout
