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
