"""Every name a module lists in __all__ resolves on that module."""

import importlib

import pytest


@pytest.mark.parametrize("name", (
    "jetverify.jetalg", "jetverify.opcalc", "jetverify.catalog",
    "jetverify.verify", "jetverify.verify.suite",
))
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
