"""Median `-X importtime` milliseconds of `import npceemd, npceemd.cli`.

Prints, over N fresh interpreters, the median cumulative time of the
whole import and of each `scipy.<name>` subpackage that has its own line
in the output. A subpackage that another one imports is counted inside
that one too. Run it on two source trees to compare process start:

    python scripts/import_cost.py [--runs N] [--src SRC]
"""

import argparse
import os
import re
import statistics
import subprocess
import sys

IMPORT = "import npceemd, npceemd.cli"
# "import time: <self us> | <cumulative us> | <two spaces per level><module>";
# the package's own lines count only at the top level.
LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| (npceemd(?:\.cli)?|\s*scipy\.[a-z]\w*)$", re.M)


def import_ms(src: str) -> dict[str, float]:
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stderr
    ms: dict[str, float] = {}
    for cumulative, module in LINE.findall(err):
        name = module.strip() if "scipy" in module else IMPORT
        ms[name] = ms.get(name, 0.0) + int(cumulative) / 1000
    return ms


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters (default 5)")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    runs = [import_ms(os.path.abspath(args.src)) for _ in range(args.runs)]
    names = set().union(*runs)
    medians = {name: statistics.median(run.get(name, 0.0) for run in runs) for name in names}
    for name in sorted(medians, key=medians.get, reverse=True):
        print(f"{name:<28} {medians[name]:>8.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
