"""The benchmark runs end to end on this checkout.

``perfbench/run.py`` drives the package through its public API and probes
the ``rs-kt`` program directly (``build_rskt_lp``, ``solve``, the program's
size and the solve's pivot count), so a change to any of them shows up here
rather than first in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_desk_workload_runs_correctly():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
