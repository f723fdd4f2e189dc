"""The traced benchmark run wraps package functions by name and reads some
of their arguments by position; these tests keep the package to that."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING_PATH = BENCH / "tracing.py"
SPEED_PATH = BENCH / "speed.py"


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


def test_sift_once_takes_h_first_and_extrema_as_an_option():
    # The trace counts sift_once by name and forwards keywords; emd passes
    # the residue's extrema scan as the optional ``extrema``.
    params = inspect.signature(importlib.import_module("npceemd.emd").sift_once).parameters
    first = next(iter(params.values()))
    assert first.name == "h"
    assert first.kind in (first.POSITIONAL_ONLY, first.POSITIONAL_OR_KEYWORD)
    assert params["extrema"].default is None


def test_speed_reference_kernel_imports_nothing_from_the_package():
    # Timings are scaled by this kernel's speed; if it ran package code, a
    # package speed-up would shift the scale and cancel itself out.
    imported = []
    for node in ast.walk(ast.parse(SPEED_PATH.read_text())):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    for name in imported:
        assert not name.startswith(".") and name.split(".")[0] != "npceemd", name


def test_every_package_name_the_workloads_read_resolves():
    # The workloads reach the package through ``api`` (or ``self.api``), the
    # imported ``npceemd``; a public name removed from the package must
    # fail here rather than in a benchmark run.
    import npceemd
    import npceemd.cli  # noqa: F401  (the workloads call api.cli.main)

    def api_path(node):
        """("cli", "main") for api.cli.main or self.api.cli.main, else ()."""
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            names.append(node.id)
        names.reverse()
        if names[:2] == ["self", "api"]:
            names = names[1:]
        return tuple(names[1:]) if names[:1] == ["api"] else ()

    tree = ast.parse((BENCH / "workloads.py").read_text())
    paths = {api_path(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    paths.discard(())
    assert ("decompose",) in paths
    for path in paths:
        target = npceemd
        for name in path:
            assert hasattr(target, name), ".".join(("npceemd",) + path)
            target = getattr(target, name)
