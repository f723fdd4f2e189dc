"""The traced benchmark run wraps package functions by name and reads some
of their arguments by position; these tests keep the package to that."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(tracing):
    assert tracing.WRAPPED
    for module_name, fn_name in tracing.WRAPPED:
        module = importlib.import_module(f"npceemd.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"npceemd.{module_name}.{fn_name}"


@pytest.mark.parametrize(
    "span,first",
    [("mi.knn_mutual_information", "x"), ("cli.read_signal_csv", "path")],
)
def test_counters_read_the_first_positional_argument(tracing, span, first):
    # COUNTERS reads args[0] of these calls: the data array and the CSV path
    assert span in tracing.COUNTERS
    module_name, fn_name = span.split(".")
    fn = getattr(importlib.import_module(f"npceemd.{module_name}"), fn_name)
    param = next(iter(inspect.signature(fn).parameters.values()))
    assert param.name == first
    assert param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
