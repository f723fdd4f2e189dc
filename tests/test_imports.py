import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
PACKAGE = os.path.join(SRC, "npceemd")


def test_import_loads_neither_scipy_signal_nor_stats():
    # scipy.signal, and the scipy.stats it pulls in, were about half of
    # every process start; the package needs neither.
    probe = (
        "import sys, npceemd, npceemd.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"


def test_import_loads_neither_scipy_interpolate_nor_optimize():
    # scipy.interpolate, and the scipy.optimize it pulls in, evaluated the
    # envelope spline, which the package now evaluates itself.
    probe = (
        "import sys, npceemd, npceemd.cli; "
        "print(sorted(m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"


def test_every_import_is_at_module_level():
    # An import moved into a function would only shift its cost from
    # process start into the first record.
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read(), name)
        top = set(tree.body)
        nested = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top
        ]
        assert nested == [], (name, nested)
