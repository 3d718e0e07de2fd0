"""The benchmark tracer wraps fspm functions by name: they must all exist.

``benchmarks/tracing.py`` is read as it stands, never edited.  A refactor
that drops or renames a function it traces would otherwise end a traced
benchmark run in an ``AttributeError``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("_fspm_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in tracing.FUNCTIONS.items() for name in names
])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"fspm.{module}"), name))


@pytest.mark.parametrize("module, cls, method, _span", tracing.METHODS)
def test_traced_method_exists(module, cls, method, _span):
    # The tracer swaps the attribute in the class's own namespace.
    assert callable(vars(getattr(importlib.import_module(f"fspm.{module}"), cls))[method])


def test_cli_entry_point_exists():
    assert callable(importlib.import_module("fspm.cli").main)
