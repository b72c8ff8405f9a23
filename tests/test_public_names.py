"""Every exported name resolves, so that a stale ``__all__`` entry fails."""

import importlib
import pkgutil

import pytest

import aniso3d

MODULES = ["aniso3d"] + [f"aniso3d.{info.name}"
                         for info in pkgutil.iter_modules(aniso3d.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert not missing

