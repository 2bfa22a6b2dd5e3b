"""The public surface: every exported name resolves, and the algorithm names
that configs and the benchmark read stay as they are."""

import importlib
import pkgutil

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
