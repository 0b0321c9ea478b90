"""The benchmark's tracer (perfbench/tracing.py) rebinds module globals of
armkit by name; a name that no longer exists, or stops being a function,
would break ``perfbench/run.py --trace 1`` without failing any other test."""
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.WRAPPED.items() for name in names]


@pytest.mark.parametrize("module, name", _wrapped(), ids=lambda v: getattr(v, "__name__", v))
def test_wrapped_name_is_a_callable_module_global(module, name):
    assert callable(vars(module).get(name)), f"{module.__name__}.{name}"
