"""Write one sha256 per (record, scale, method) decomposition.

Each row decomposes a record scaled to a peak of 1 and then multiplied by
a scale, with `decompose` for each of the five methods (Ne 2, master_seed
7) and with `emd` called directly. The digest covers the mode count, every
IMF and the residue; a call that raises, or whose arithmetic overflows (a
RuntimeWarning is raised as an error), is written as the exception's class
name. Running the table against two source trees and comparing the files
shows whether a sifting change keeps its outputs bit for bit:

    python scripts/decompose_digests.py --src /path/to/parent/src --out /tmp/parent.txt
    python scripts/decompose_digests.py --out /tmp/change.txt
    diff /tmp/parent.txt /tmp/change.txt

``tests/test_same_bits.py`` compares these rows against
``tests/data/decompose_digests.txt``.

Records: 2048 standard normal samples (default_rng(3)), the same draws
quantized to integer counts round(8 x), whose flat steps take
`find_extrema`'s flat-step path, a 4096-sample two tone
sin(0.05 k) + 0.3 sin(0.7 k), and specimen 6 of a 6-specimen seed-11
run-to-failure series. The scales reach up to 2**1023, the largest power
of two, and down to 1e-300, just above float64's subnormal range (below
2.2e-308). The 216 rows take under ten seconds on two cores.

Usage:
    python scripts/decompose_digests.py --out FILE [--src SRC]
"""

import argparse
import hashlib
import os
import sys
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

METHODS = ("emd", "eemd", "ceemd", "ceemdan", "npceemd")
SCALES = [
    ("1", 1.0), ("3.7", 3.7), ("1e200", 1e200), ("1e-200", 1e-200),
    ("2**600", 2.0**600), ("2**-600", 2.0**-600), ("1e-300", 1e-300),
    ("2**1022", 2.0**1022), ("2**1023", 2.0**1023),
]


def records(npceemd):
    k = np.arange(4096)
    specimen = npceemd.gen_degradation_run(npceemd.DefectSimParams(seed=11), 6).specimen(6)
    return [
        ("normal", np.random.default_rng(3).standard_normal(2048), 1000.0),
        ("counts", np.round(8 * np.random.default_rng(3).standard_normal(2048)), 1000.0),
        ("two-tone", np.sin(0.05 * k) + 0.3 * np.sin(0.7 * k), 1000.0),
        ("specimen", specimen.samples, specimen.sample_rate_hz),
    ]


def digest(imf_set) -> str:
    h = hashlib.sha256(str(imf_set.n_imfs).encode())
    for v in (*imf_set.imfs, imf_set.residue):
        h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file to write the rows to")
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                        help="source tree whose npceemd package is run")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import npceemd
    from npceemd.ensemble import EnsembleConfig, decompose

    runs = [("emd-direct", npceemd.emd)]
    for method in METHODS:
        cfg = EnsembleConfig(method=method, ensemble_size=2, master_seed=7)
        runs.append((method, lambda s, cfg=cfg: decompose(s, cfg)))
    rows = []
    for name, x, rate in records(npceemd):
        unit = x / np.max(np.abs(x))
        for label, scale in SCALES:
            for method, run in runs:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    try:
                        out = digest(run(npceemd.Signal(unit * scale, rate)))
                    except Exception as exc:  # an exception is an outcome to compare
                        out = type(exc).__name__
                rows.append(f"{name} {label} {method} {out}\n")
    with open(args.out, "w") as fh:
        fh.writelines(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
