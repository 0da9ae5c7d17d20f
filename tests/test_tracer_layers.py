"""The traced benchmark looks library functions up by name.

``perfbench/tracer.py`` wraps every ``module.name`` of its ``LAYERS`` table
through ``getattr``, so renaming or deleting one of those functions breaks
every traced benchmark run with ``AttributeError``.  This guard loads the
tracer by path, since ``perfbench`` is not a package, and checks each name.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_a_library_function():
    tracer = _load_tracer()
    assert tracer.LAYERS
    missing = [
        f"{module}.{name}"
        for module, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"sl2onepoint.{module}"), name, None))
    ]
    assert missing == []
