"""The package's hand-maintained ``__all__``, and the modules its sources import."""

import ast
import sys
import types
from pathlib import Path

import topophase as tp


def test_all_is_sorted_resolves_and_matches_the_namespace():
    names = tp.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    assert all(hasattr(tp, name) for name in names)
    public = {name for name, value in vars(tp).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


def test_sources_import_only_numpy_and_the_standard_library():
    # numpy is the one declared dependency; an installed scipy would hide a stray import
    allowed = set(sys.stdlib_module_names) | {"numpy", "topophase"}
    sources = sorted(Path(tp.__file__).parent.glob("*.py"))
    assert sources
    found = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert {(name, top) for name, top in found if top not in allowed} == set()
