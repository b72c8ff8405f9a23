"""Every exported name resolves, so that a stale ``__all__`` entry fails, and
every imported name is used or exported, so that a stale import fails."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import aniso3d

MODULES = ["aniso3d"] + [f"aniso3d.{info.name}"
                         for info in pkgutil.iter_modules(aniso3d.__path__)]

# imported only so that perfbench/tracecli.py finds a name to wrap (ROADMAP item
# 12); an entry goes when its module uses or stops importing the name
TRACER_ONLY_IMPORTS = {("cli", "pooled_profile"), ("cli", "read_patterns"),
                       ("cli", "simulate_campaign"), ("isotest", "pair_numerators"),
                       ("isotest", "pattern_pairs")}


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert not missing


def test_every_imported_name_is_used_or_exported():
    unused = set()
    for path in sorted(Path(aniso3d.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = getattr(importlib.import_module(f"aniso3d.{path.stem}"), "__all__", [])
        unused |= {(path.stem, name) for name in imported - used - set(exported)}
    assert unused == TRACER_ONLY_IMPORTS
