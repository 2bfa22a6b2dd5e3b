"""The public surface: every exported name resolves, and the algorithm names
that configs and the benchmark read stay as they are."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rdmlab
from rdmlab.bench import KNOWN_ALGORITHMS

MODULES = ["rdmlab", *(f"rdmlab.{m.name}" for m in pkgutil.iter_modules(rdmlab.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_known_algorithms():
    assert KNOWN_ALGORITHMS == ("rs-bc", "rs-kt", "bc", "mimic-md", "eta-hat")


def test_runtime_imports_no_scipy():
    """numpy is the one runtime dependency: importing the package and running
    all five algorithms loads no scipy module (scipy.sparse alone adds about
    0.23 s and 22 MB to the import)."""
    script = (
        "import sys, rdmlab as rl\n"
        "cfg = rl.ExperimentConfig(num_states=2, num_actions=2, horizon=3, theta=0.5, rho=0.5,\n"
        "    n_sweep=(20,), instances=1, seeds_per_dataset=1,\n"
        "    algorithms=('rs-bc', 'rs-kt', 'bc', 'mimic-md', 'eta-hat'))\n"
        "assert sum(row.failures for row in rl.run_experiment(cfg)) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(rdmlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
