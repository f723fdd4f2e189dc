"""Print the peak traced allocation of one decomposition per method and size.

Each row decomposes n standard normal samples (default_rng(0), 1000 Hz)
with `decompose` (Ne 10, the other settings at their defaults) in a fresh
interpreter, with the worker processes off, so that the whole
decomposition runs, and allocates, in that interpreter. The peak is
`tracemalloc`'s, taken over the `decompose` call alone; the output size
is the bytes of the IMFs plus the residue, so peak / output is the
working memory that a method needs beyond its result. Pass --src to
measure another source tree, such as a parent commit's:

    python scripts/memory_footprint.py
    python scripts/memory_footprint.py --src /path/to/parent/src

Usage:
    python scripts/memory_footprint.py [--src SRC]
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
METHODS = ("emd", "eemd", "ceemd", "ceemdan", "npceemd")

# One row, run by a fresh interpreter: argv is src, method, n.
ROW = """
import sys, tracemalloc
import numpy as np
sys.path.insert(0, sys.argv[1])
from npceemd import EnsembleConfig, Signal, workers
from npceemd.ensemble import decompose
workers.usable_cpus = lambda: 1
method, n = sys.argv[2], int(sys.argv[3])
s = Signal(np.random.default_rng(0).standard_normal(n), 1000.0)
cfg = EnsembleConfig(method=method, ensemble_size=10)
tracemalloc.start()
out = decompose(s, cfg)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
output = (out.n_imfs + 1) * n * 8
print(out.n_imfs, peak, output)
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                        help="source tree whose npceemd package is run")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    print(f"{'method':<8} {'n':>7} {'modes':>5} {'peak_mb':>8} {'peak/out':>8}")
    for method in METHODS:
        for log2n in range(13, 18):
            n = 1 << log2n
            row = subprocess.run(
                [sys.executable, "-c", ROW, src, method, str(n)],
                check=True, capture_output=True, text=True,
            ).stdout
            modes, peak, output = (int(v) for v in row.split())
            print(f"{method:<8} {n:>7} {modes:>5} {peak / 2**20:>8.1f} {peak / output:>8.1f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
