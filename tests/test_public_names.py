"""Every name a package exports in `__all__` resolves, once."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["latfix", "latfix.exactnum", "latfix.conegeom"])
def test_all_names_resolve_without_duplicates(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == []
