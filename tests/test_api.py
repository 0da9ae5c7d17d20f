"""Each library module's ``__all__`` is its public API: every listed name
exists, and every public function or class the module defines is listed.
Names a module re-exports from another may be listed too."""

import importlib
import inspect

import pytest

MODULES = ("bgg", "generators", "mtc", "qseries", "repanalysis", "sl2data")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"sl2onepoint.{name}")
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []
    defined = [
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [n for n in defined if n not in listed] == []
