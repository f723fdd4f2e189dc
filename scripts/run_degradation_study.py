"""Run-to-failure study: generate the degradation data, then diagnose one
late-life specimen with every method and both selection schemes.

Usage:
    python scripts/run_degradation_study.py [--minute M] [--seed N] [--out DIR]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from npceemd import (  # noqa: E402
    DefectSimParams,
    EnsembleConfig,
    diagnose,
    gen_degradation_run,
    rms,
)

if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--minute", type=int, default=440)
    parser.add_argument("--specimens", type=int, default=500)
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--out", default="degradation_results")
    args = parser.parse_args()

    params = DefectSimParams(seed=args.seed)
    run = gen_degradation_run(params, args.specimens)
    target = params.defect_frequency_hz
    specimen = run.specimen(args.minute)

    os.makedirs(args.out, exist_ok=True)
    trend = np.column_stack(
        (np.arange(1, args.specimens + 1), [rms(s) for s in run.specimens])
    )
    np.savetxt(
        os.path.join(args.out, "rms_trend.csv"), trend,
        delimiter=",", header="minute,rms", comments="",
    )

    print(f"specimen minute {args.minute}, defect frequency {target:.2f} Hz")
    print(f"{'method':<10} {'selector':<10} {'selected':<14} verdict")
    cfg = EnsembleConfig(method="npceemd", ensemble_size=10, master_seed=args.seed)
    report = diagnose(specimen, cfg, target_hz=target)
    print(f"{'npceemd':<10} {'mi':<10} {str(report.selected_indices):<14} "
          f"{report.verdict}")
    for method in ("eemd", "ceemd", "ceemdan"):
        cfg = EnsembleConfig(method=method, ensemble_size=10, master_seed=args.seed)
        report = diagnose(specimen, cfg, select="kurtosis", target_hz=target)
        print(f"{method:<10} {'kurtosis':<10} {str(report.selected_indices):<14} "
              f"{report.verdict}")
