"""The benchmark's tracer (perfbench/tracing.py) rebinds module globals of
armkit by name; a name that no longer exists, or stops being a function,
would break ``perfbench/run.py --trace 1`` without failing any other test."""
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


tracing = _tracing()
WRAPPED = [(module, name) for module, names in tracing.WRAPPED.items() for name in names]


@pytest.mark.parametrize("module, name", WRAPPED, ids=lambda v: getattr(v, "__name__", v))
def test_wrapped_name_is_a_callable_module_global(module, name):
    assert callable(vars(module).get(name)), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module, name", WRAPPED, ids=lambda v: getattr(v, "__name__", v))
def test_wrapped_callable_is_defined_in_a_traced_layer(module, name):
    """The tracer names a span's layer after the module that defines the
    function; summarize has no bucket for a layer outside LAYERS."""
    layer = vars(module)[name].__module__.rsplit(".", 1)[-1]
    assert layer in tracing.LAYERS, f"{module.__name__}.{name} is defined in {layer}"
