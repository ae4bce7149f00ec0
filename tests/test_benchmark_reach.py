"""The benchmark's reach, checked with the unit tests.

``perfbench/workloads.EXERCISES`` lists the functions each workload must
call, and the benchmark's tracer reads the rows of every ``canon_matrix``
argument.  This runs the benchmark's own reach test on its scaled-down
census, certify and stream passes, so that a change which drops a listed
function from its workload, or changes what ``canon_matrix`` takes, fails
here too and not only under ``python -m pytest perfbench``.  It only reads
``perfbench/``: no bytecode or pytest cache is written there.
"""

import compileall
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REACH_TEST = "perfbench/test_perfbench.py::test_every_listed_function_records_a_call"


def test_every_listed_function_records_a_call_on_the_scaled_down_workloads():
    # most of the time is CLI start-up in about a hundred traced children,
    # so compile the package first, as perfbench/run.py does
    assert compileall.compile_dir(str(ROOT / "src" / "splitkit"), quiet=1)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", REACH_TEST],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-1000:]
    assert "3 passed" in proc.stdout
