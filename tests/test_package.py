"""The package's hand-maintained ``__all__`` against the names ``topophase`` binds."""

import types

import topophase as tp


def test_all_is_sorted_resolves_and_matches_the_namespace():
    names = tp.__all__
    assert names == sorted(names) and len(set(names)) == len(names)
    assert all(hasattr(tp, name) for name in names)
    public = {name for name, value in vars(tp).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public
