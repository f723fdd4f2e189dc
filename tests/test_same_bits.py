"""Same bits: the outputs of the two byte-identity scripts against the
tables committed beside this file.

``data/decompose_digests.txt`` holds the rows of
``scripts/decompose_digests.py`` and ``data/cli_artifacts.txt`` a sha256
of each file that ``scripts/cli_artifacts.py`` writes (with its exit
codes, stdout and stderr), by relative path. Each table starts with ``#``
lines that record the environment it was written on. A change that moves
the bits on purpose rewrites the tables and shows in its diff:

    python tests/test_same_bits.py

The test does not skip on another environment: a mismatch there shows
both environments beside the differing rows.
"""

import difflib
import hashlib
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
TABLES = ("decompose_digests.txt", "cli_artifacts.txt")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"# python {platform.python_version()}",
        f"# numpy {np.__version__}",
        f"# scipy {scipy.__version__}",
        f"# blas {blas['name']} {blas['version']}",
        f"# cpu {_cpu_model()}",
    ]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def fresh_tables(work: str) -> dict[str, list[str]]:
    """Each table's rows, from both scripts run side by side in fresh
    interpreters, so no worker pool starts in the calling process."""
    digests, artifacts = os.path.join(work, "digests.txt"), os.path.join(work, "cli")
    procs = [
        subprocess.Popen([sys.executable, os.path.join(ROOT, "scripts", script), "--out", out])
        for script, out in (("decompose_digests.py", digests), ("cli_artifacts.py", artifacts))
    ]
    try:
        codes = [proc.wait(timeout=300) for proc in procs]
    finally:
        for proc in procs:  # a script still running after the timeout ends here
            proc.kill()
            proc.wait()
    assert codes == [0, 0], f"the scripts exited with {codes}"
    with open(digests) as fh:
        rows = fh.read().splitlines()
    files = sorted(
        os.path.relpath(os.path.join(d, name), artifacts).replace(os.sep, "/")
        for d, _, names in os.walk(artifacts) for name in names
    )
    return {
        "decompose_digests.txt": rows,
        "cli_artifacts.txt": [f"{_sha256(os.path.join(artifacts, f))}  {f}" for f in files],
    }


def _committed(name: str) -> tuple[list[str], list[str]]:
    """The environment lines and the rows of a committed table."""
    with open(os.path.join(DATA, name)) as fh:
        lines = fh.read().splitlines()
    return [x for x in lines if x.startswith("#")], [x for x in lines if not x.startswith("#")]


def test_outputs_match_the_committed_tables(tmp_path):
    fresh = fresh_tables(str(tmp_path))
    report = []
    for name in TABLES:
        header, rows = _committed(name)
        diff = [
            line for line in difflib.unified_diff(rows, fresh[name], lineterm="", n=0)
            if line[:1] in "+-" and line[:3] not in ("+++", "---")
        ]
        if diff:
            report += [f"{name}: {len(diff)} differing rows (- committed, + this run)", *diff]
            report += ["committed on:", *header, "run on:", *environment()]
    assert not report, "\n".join(report)


def main() -> int:
    """Rewrite both tables from this tree, on this environment."""
    with tempfile.TemporaryDirectory() as work:
        fresh = fresh_tables(work)
    os.makedirs(DATA, exist_ok=True)
    for name in TABLES:
        with open(os.path.join(DATA, name), "w") as fh:
            fh.writelines(f"{line}\n" for line in environment() + fresh[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
