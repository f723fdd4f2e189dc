"""Run a fixed table of CLI invocations and keep every file they write.

Each invocation writes under ``OUT/<label>/``; ``OUT/exit_codes.txt``
lists every label with its exit code (or the name of the exception it
raised), ``OUT/stdout.txt`` what each one printed and ``OUT/stderr.txt``
its error messages, with OUT written as ``OUT``. Running the table
against two source trees and comparing the outputs shows whether a CLI
change keeps its artifacts byte for byte:

    python scripts/cli_artifacts.py --src /path/to/parent/src --out /tmp/parent
    python scripts/cli_artifacts.py --out /tmp/change
    diff -r /tmp/parent /tmp/change

Only the labels under "exit 2" below are meant to differ, and only where
a change turns an accepted invocation into a usage error on purpose, or
the labels a fix changes on purpose. Against a tree that still has them:

- `dia-mi-target` sets the removed `--mi-threshold` and `--k`; it exits 2
  and writes nothing (`dia-mi-target-default` keeps that run's artifacts
  covered);
- `dia-kurtosis-tiny` and `dia-kurtosis-huge` end in `ZeroDivisionError`
  and in exit 3, where the kurtosis taken at a unit peak gives exit 0;
- `x-fn-zero` ends in `ZeroDivisionError`, `x-fn-negative` exits 0 with a
  record, and `x-severity-nan`, `x-dec-noise-scale-inf` and
  `x-dia-noise-scale-inf` exit 2 only after generating or decomposing,
  where `DefectSimParams`, `gen_defect_signal` and `EnsembleConfig` reject
  the value first (exit 2, nothing written);
- `x-sim-seed-negative`, `x-dec-seed-negative` and `x-dia-seed-negative`
  exit 2 with numpy's "expected non-negative integer", the last two
  blaming the input file, where `--seed` is refused at parse time with a
  message that names it (exit 2 either way, nothing written).

The table runs in under ten seconds on two cores.

Usage:
    python scripts/cli_artifacts.py --out DIR [--src SRC]
"""

import argparse
import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

DEFECT = "sim-defect/defect.csv"
DEFECT_HZ = repr(1.0 / 0.015)
SMALL = ["--seed", "1", "--ensemble", "2", "--max-imfs", "4"]
FIXTURE_FLAGS = [
    "--sample-rate", "12000", "--duration", "0.25", "--fm", "30", "--t-prime", "0.02",
    "--fn", "2500", "--decay", "700", "--amplitude", "4", "--jitter-frac", "0.01",
    "--noise-sigma", "2",
]

# Odd-CSV inputs: name -> (extra argv, text). A 64-sample record spaced
# 2 ms, as time,value rows; line k of a file is row k - 1 after a header.
_TIMES = [k / 500 for k in range(64)]
_VALUES = [((k * 7919) % 101 - 50) / 25.0 for k in range(64)]
_ROWS = [f"{t!r},{v!r}" for t, v in zip(_TIMES, _VALUES)]
ODD_CSV = {
    "comments.csv": ([], "# a note\ntime,value\n" + "".join(
        f"{row}\n" + ("# between rows\n\n   \n" if k % 16 == 7 else "")
        for k, row in enumerate(_ROWS))),
    "header-only.csv": ([], "time,value\n"),
    "empty.csv": ([], ""),
    "bad-token.csv": ([], "time,value\n" + "\n".join(
        _ROWS[:9] + [f"{_TIMES[9]!r},oops"] + _ROWS[10:]) + "\n"),
    "header-after.csv": ([], "time,value\n" + "\n".join(
        _ROWS[:40] + ["time,value"] + _ROWS[40:]) + "\n"),
    "three-columns.csv": ([], "a,b,c\n" + "".join(f"{row},0.5\n" for row in _ROWS)),
    "ragged.csv": ([], "time,value\n" + "\n".join(
        _ROWS[:20] + [repr(_TIMES[20])] + _ROWS[21:]) + "\n"),
    "inline-hash.csv": ([], "time,value\n" + "\n".join(
        _ROWS[:5] + [_ROWS[5] + " # spike"] + _ROWS[6:]) + "\n"),
    "underscores.csv": (["--sample-rate", "500"], "value\n" + "".join(
        f"{k % 7 - 3}_{k % 10}00.5\n" for k in range(64))),
    "crlf.csv": ([], "time,value\r\n" + "".join(f"{row}\r\n" for row in _ROWS)),
    "nonuniform.csv": ([], "time,value\n" + "".join(
        f"{t + (1e-4 if k == 30 else 0.0)!r},{v!r}\n"
        for k, (t, v) in enumerate(zip(_TIMES, _VALUES)))),
}

# (label, argv without --out). A path under OUT is written as "@label/file"
# and must come from an earlier row.
INVOCATIONS = [
    # simulate: every fixture, with default and non-default flags
    ("sim-tone", ["simulate", "tone"]),
    ("sim-impulses", ["simulate", "impulses", "--seed", "3"]),
    ("sim-combined", ["simulate", "combined"]),
    ("sim-combined-snr", ["simulate", "combined", "--snr-db", "10", "--seed", "3"]),
    ("sim-noisy", ["simulate", "combined-noisy", "--seed", "2"]),
    ("sim-noisy-snr", ["simulate", "combined-noisy", "--seed", "2", "--snr-db", "0"]),
    ("sim-defect", ["simulate", "defect", "--seed", "1"]),
    ("sim-defect-flags", ["simulate", "defect", "--seed", "5", "--severity", "3", *FIXTURE_FLAGS]),
    ("sim-run", ["simulate", "degradation-run", "--seed", "4", "--specimens", "3",
                 "--duration", "0.1"]),
    ("sim-run-flags", ["simulate", "degradation-run", "--seed", "6", "--specimens", "2",
                       *FIXTURE_FLAGS]),
    # decompose: each method, small Ne, --max-imfs, single-column input
    ("dec-emd", ["decompose", "@" + DEFECT, "--method", "emd", "--verify"]),
    ("dec-emd-max", ["decompose", "@" + DEFECT, "--method", "emd", "--max-imfs", "3"]),
    ("dec-eemd", ["decompose", "@" + DEFECT, "--method", "eemd", *SMALL]),
    ("dec-ceemd", ["decompose", "@" + DEFECT, "--method", "ceemd", "--noise-scale", "0.3",
                   *SMALL]),
    ("dec-ceemdan", ["decompose", "@" + DEFECT, "--method", "ceemdan", "--verify", *SMALL]),
    ("dec-npceemd", ["decompose", "@" + DEFECT, "--method", "npceemd", "--hurst", "0.3",
                     *SMALL]),
    # --verify on every ensemble method: stdout.txt keeps each error
    ("dec-eemd-verify", ["decompose", "@" + DEFECT, "--method", "eemd", "--verify", *SMALL]),
    ("dec-ceemd-verify", ["decompose", "@" + DEFECT, "--method", "ceemd", "--verify",
                          *SMALL]),
    ("dec-npceemd-verify", ["decompose", "@" + DEFECT, "--method", "npceemd", "--verify",
                            *SMALL]),
    ("dec-column", ["decompose", "@inputs/values.csv", "--sample-rate", "500",
                    "--method", "emd"]),
    # diagnose: mi and kurtosis, each with and without --target-hz, and mi
    # with the default ensemble, whose IMFs outnumber the scoring threads
    ("dia-mi", ["diagnose", "@" + DEFECT, "--method", "npceemd", *SMALL]),
    ("dia-mi-default", ["diagnose", "@" + DEFECT, "--method", "npceemd", "--seed", "1"]),
    ("dia-mi-target", ["diagnose", "@" + DEFECT, "--method", "npceemd", "--target-hz",
                       DEFECT_HZ, "--mi-threshold", "0.05", "--k", "4", *SMALL]),
    ("dia-mi-target-default", ["diagnose", "@" + DEFECT, "--method", "npceemd",
                               "--target-hz", DEFECT_HZ, *SMALL]),
    ("dia-kurtosis", ["diagnose", "@" + DEFECT, "--method", "emd", "--select", "kurtosis"]),
    # kurtosis selection on one defect record at peaks of 1e-100 and 1e200
    ("dia-kurtosis-tiny", ["diagnose", "@inputs/defect_tiny.csv", "--sample-rate", "10000",
                           "--method", "emd", "--select", "kurtosis"]),
    ("dia-kurtosis-huge", ["diagnose", "@inputs/defect_huge.csv", "--sample-rate", "10000",
                           "--method", "emd", "--select", "kurtosis"]),
    ("dia-kurtosis-target", ["diagnose", "@" + DEFECT, "--method", "eemd", "--select",
                             "kurtosis", "--target-hz", DEFECT_HZ, *SMALL]),
    # a tied record whose peak is the largest power of two
    ("dia-alt-max", ["diagnose", "@inputs/alt_max.csv", "--sample-rate", "1000",
                     "--method", "emd"]),
    # compare: the method, Hurst and ensemble grids
    ("cmp-methods", ["compare", "--fixture", "combined", "--methods",
                     "emd,eemd,ceemd,ceemdan,npceemd", "--seed", "0", "--ensemble", "1",
                     "--max-imfs", "3"]),
    ("cmp-hurst", ["compare", "--fixture", "combined-noisy", "--seed", "1", "--methods",
                   "npceemd", "--hurst-grid", "0.2:0.6:0.2", "--ensemble", "1",
                   "--max-imfs", "3"]),
    ("cmp-ensemble", ["compare", "--fixture", "combined", "--snr-db", "10", "--seed", "2",
                      "--methods", "eemd", "--ensemble-grid", "1,2", "--max-imfs", "3"]),
    ("cmp-method", ["compare", "--fixture", "combined", "--method", "emd", "--max-imfs", "2"]),
    # exit 2: flags a fixture does not read, a sample rate of 0, a sample
    # count that is not finite or above the cap, a burst parameter that is
    # not finite, a flag before the fixture name, grids with an invalid point,
    # diagnose flags it does not take or checks before decomposing, a sample rate given
    # beside a time column, and an infinite sample rate, given or from a
    # time column spaced by the smallest subnormal
    ("x-tone-snr-rate", ["simulate", "tone", "--sample-rate", "5000", "--snr-db", "-10"]),
    ("x-impulses-fm", ["simulate", "impulses", "--fm", "30"]),
    ("x-combined-severity", ["simulate", "combined", "--severity", "2"]),
    ("x-noisy-specimens", ["simulate", "combined-noisy", "--seed", "2", "--specimens", "3"]),
    ("x-defect-snr", ["simulate", "defect", "--seed", "1", "--snr-db", "0"]),
    ("x-run-severity", ["simulate", "degradation-run", "--seed", "4", "--specimens", "1",
                        "--duration", "0.1", "--severity", "2"]),
    ("x-rate-zero", ["simulate", "defect", "--seed", "1", "--sample-rate", "0"]),
    ("x-rate-inf", ["simulate", "defect", "--seed", "1", "--sample-rate", "inf"]),
    ("x-duration-inf", ["simulate", "defect", "--seed", "1", "--duration", "inf"]),
    ("x-rate-huge", ["simulate", "defect", "--seed", "1", "--sample-rate", "1e12"]),
    ("x-noise-sigma-nan", ["simulate", "defect", "--seed", "1", "--noise-sigma", "nan"]),
    ("x-jitter-nan", ["simulate", "defect", "--seed", "1", "--jitter-frac", "nan"]),
    ("x-decay-inf", ["simulate", "defect", "--seed", "1", "--decay", "inf"]),
    ("x-t-prime-inf", ["simulate", "defect", "--seed", "1", "--t-prime", "inf"]),
    ("x-seed-first", ["simulate", "--seed", "4", "tone"]),
    ("x-unknown-fixture", ["simulate", "wavelet"]),
    ("x-noisy-unseeded", ["simulate", "combined-noisy"]),
    ("x-cmp-method", ["compare", "--fixture", "combined", "--seed", "1", "--methods",
                      "npceemd,foo", "--max-imfs", "2"]),
    ("x-cmp-hurst", ["compare", "--fixture", "combined", "--seed", "1", "--methods", "npceemd",
                     "--hurst-grid", "0.5:1.0:0.5", "--ensemble", "1", "--max-imfs", "2"]),
    ("x-cmp-ensemble", ["compare", "--fixture", "combined", "--seed", "1", "--methods", "eemd",
                        "--ensemble-grid", "2,0", "--max-imfs", "2"]),
    ("x-dia-k-zero", ["diagnose", "@" + DEFECT, "--method", "emd", "--k", "0"]),
    ("x-dia-threshold-nan", ["diagnose", "@" + DEFECT, "--method", "emd", "--mi-threshold",
                             "nan"]),
    ("x-dia-target-nyquist", ["diagnose", "@" + DEFECT, "--method", "emd", "--target-hz",
                              "1e9"]),
    ("x-dia-rate-timed", ["diagnose", "@" + DEFECT, "--method", "emd", "--sample-rate",
                          "123"]),
    ("x-dec-rate-inf", ["decompose", "@inputs/values.csv", "--sample-rate", "inf",
                        "--method", "emd"]),
    ("x-dia-rate-inf", ["diagnose", "@inputs/values.csv", "--sample-rate", "inf",
                        "--method", "emd"]),
    ("x-timed-tiny-dt", ["decompose", "@inputs/tiny_dt.csv", "--method", "emd"]),
    ("x-fn-zero", ["simulate", "defect", "--seed", "1", "--fn", "0"]),
    ("x-fn-negative", ["simulate", "defect", "--seed", "1", "--fn", "-5"]),
    ("x-severity-nan", ["simulate", "defect", "--seed", "1", "--severity", "nan"]),
    ("x-dec-noise-scale-inf", ["decompose", "@" + DEFECT, *SMALL, "--noise-scale", "inf"]),
    ("x-dia-noise-scale-inf", ["diagnose", "@" + DEFECT, *SMALL, "--noise-scale", "inf"]),
    # a negative seed, refused at parse time
    ("x-sim-seed-negative", ["simulate", "defect", "--seed", "-1"]),
    ("x-dec-seed-negative", ["decompose", "@" + DEFECT, "--method", "npceemd", "--seed", "-1"]),
    ("x-dia-seed-negative", ["diagnose", "@" + DEFECT, "--method", "npceemd", "--seed", "-1"]),
    # odd CSV input: each file of ODD_CSV, read by decompose; the ones
    # that read exit 0, the others exit 2 with a message naming the line
    *((f"csv-{name[:-4]}", ["decompose", "@inputs/" + name, *rate, "--method", "emd",
                            "--max-imfs", "2"])
      for name, (rate, _) in sorted(ODD_CSV.items())),
]


def write_inputs(out: str, npceemd) -> None:
    """Records `simulate` does not write: single-column ones (one alternates
    +-2**1023, two hold the seed-4 severity-8 defect record at peaks of
    1e-100 and 1e200), a time column spaced by 5e-324, and ODD_CSV."""
    os.makedirs(os.path.join(out, "inputs"))
    defect = npceemd.gen_defect_signal(npceemd.DefectSimParams(seed=4), 8.0).samples
    unit = defect / max(abs(defect))
    inputs = {
        "values.csv": ["value"] + [repr(((k * 7919) % 101 - 50) / 25.0) for k in range(400)],
        "alt_max.csv": [repr((-1.0) ** k * 2.0**1023) for k in range(8)],
        "tiny_dt.csv": ["time,value"] + [f"{k * 5e-324!r},{k % 3}" for k in range(8)],
        "defect_tiny.csv": [repr(v) for v in (unit * 1e-100).tolist()],
        "defect_huge.csv": [repr(v) for v in (unit * 1e200).tolist()],
    }
    for name, lines in inputs.items():
        with open(os.path.join(out, "inputs", name), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    for name, (_, text) in ODD_CSV.items():
        with open(os.path.join(out, "inputs", name), "w", newline="") as fh:
            fh.write(text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="new output directory")
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                        help="source tree whose npceemd package is run")
    args = parser.parse_args()
    if os.path.exists(args.out):
        parser.error(f"{args.out} exists; an old file there would enter the diff")
    sys.path.insert(0, os.path.abspath(args.src))
    import npceemd
    from npceemd.cli import main as cli_main

    write_inputs(args.out, npceemd)
    codes, printed, errors = [], [], []
    for label, argv in INVOCATIONS:
        argv = [os.path.join(args.out, a[1:]) if a.startswith("@") else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli_main([*argv, "--out", os.path.join(args.out, label)])
            except Exception as exc:  # a crash is an outcome to compare, too
                code = type(exc).__name__
        codes.append(f"{label} {code}\n")
        printed.extend(f"{label}: {line}\n" for line in stdout.getvalue().splitlines())
        errors.extend(
            f"{label}: {line}\n"
            for line in stderr.getvalue().replace(args.out, "OUT").splitlines()
        )
    with open(os.path.join(args.out, "exit_codes.txt"), "w") as fh:
        fh.writelines(codes)
    with open(os.path.join(args.out, "stdout.txt"), "w") as fh:
        fh.writelines(printed)
    with open(os.path.join(args.out, "stderr.txt"), "w") as fh:
        fh.writelines(errors)
    return 0


if __name__ == "__main__":
    sys.exit(main())
