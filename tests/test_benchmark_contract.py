"""The traced benchmark wraps gospf functions and methods by name, where the
callers look them up. These tests fail when a change removes or renames one
of those bindings, instead of leaving the failure to the traced bench run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_binding_resolves(tracing):
    missing = [f"{mod}.{attr}" for mod, attr, _span in tracing.FUNCTION_BINDINGS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_every_traced_method_is_defined_on_its_class(tracing):
    missing = [f"{mod}.{cls}.{method}"
               for mod, cls, method, _span in tracing.METHOD_BINDINGS
               if method not in vars(getattr(importlib.import_module(mod), cls))]
    assert missing == []
