"""Every name a package module exports through ``__all__`` resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["cvsheet", "cvsheet.front"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
