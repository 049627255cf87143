"""Every name a module exports resolves to an object."""

import importlib
import pkgutil

import pytest

import coopa

MODULES = ["coopa"] + [f"coopa.{m.name}" for m in pkgutil.iter_modules(coopa.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
