"""Package surface: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import fgdist

# __main__ runs the CLI on import
MODULES = ["fgdist"] + [f"fgdist.{info.name}" for info in pkgutil.iter_modules(fgdist.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
