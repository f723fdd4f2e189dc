import ast
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
PACKAGE = os.path.join(SRC, "npceemd")


def test_import_loads_no_scipy_subpackage_the_package_does_not_use():
    # scipy.signal, and the scipy.stats it pulls in, were about half of
    # every process start; scipy.interpolate, and the scipy.optimize it
    # pulls in, evaluated the envelope spline, which the package now
    # evaluates itself; and the analytic envelope takes numpy's FFT, which
    # gives scipy.fft's bits.
    unused = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.fft")
    probe = (
        "import sys, npceemd, npceemd.cli; "
        f"print(sorted(m for m in {unused!r} if m in sys.modules))"
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
