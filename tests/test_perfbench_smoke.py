"""The benchmark runs end to end on this checkout.

``perfbench/run.py`` drives the package through its public API and probes
the ``rs-kt`` program directly (``build_rskt_lp``, ``solve``, the program's
size and the solve's pivot count), so a change to any of them shows up here
rather than first in a benchmark run.  The ``bulk`` run holds one round's
``run_experiment`` results, counted inside the sampler at N = 3e5, equal to
the replica's, which samples and counts through the public data path.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, args",
    [
        ("desk", ["--seconds", "1", "--trace", "1"]),
        # One round and its replica check at N = 3e5: the counts run_experiment
        # reads from the sampler must give the replica's W1 bit for bit.
        ("bulk", ["--seconds", "1", "--trace", "0"]),
        # The only workload whose truth is expert Monte Carlo and whose outputs
        # go through the joint DP, checked against the DKW oracle.
        ("scale", ["--seconds", "1", "--trace", "0"]),
    ],
    ids=["desk", "bulk", "scale"],
)
def test_workload_runs_correctly(workload, args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
