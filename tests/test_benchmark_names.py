"""The benchmark's traced names still name functions of the package.

perfbench/tracing.py times and counts functions by "layer.function" name and
only wraps public module-level functions defined in that layer, so a rename
would leave a per-layer metric such as topo.interpolate_s silently at 0.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TRACED = sorted(
    set(tracing.TIMED.values()).union(tracing.HOOKS, *tracing.FAMILIES.values())
)


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_public_function(name):
    layer, _, function = name.partition(".")
    assert layer in tracing.LAYERS and not function.startswith("_"), name
    obj = getattr(importlib.import_module(f"barstress.{layer}"), function, None)
    assert isinstance(obj, types.FunctionType), f"{name} is not a function"
    assert (obj.__module__, obj.__name__) == (f"barstress.{layer}", function), name
