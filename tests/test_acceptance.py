"""Acceptance suite: one test per criterion, comparative criteria split
per clause. Every check prints a PASS/FAIL line with its measured values,
so a run's outcome can be audited from the log alone.

All randomness is pinned: the clean combined-signal study uses
FIXTURE_SEED, the run-to-failure study uses DEGRADATION_SEED. The
comparative clauses on the noisy fixture (criteria 5-7) are decided over
the declared draw set COMPARISON_DRAWS: draw d builds the fixture with
seed d and runs every decomposition with master_seed d. Each clause
computes its per-draw statistic on every draw and compares the mean over
the draws to its bar, since on this fixture the spread between draws can
exceed the effect a clause orders. Their log lines list every per-draw
value beside the mean.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from npceemd import (
    Component,
    EnsembleConfig,
    FgnParams,
    Signal,
    analytic_envelope,
    detect_defect_peak,
    diagnose,
    diagnose_kurtosis_baseline,
    digamma,
    emd,
    envelope_spectrum,
    gen_combined,
    gen_tone,
    gen_impulses,
    generate_fgn,
    fgn_autocovariance,
    knn_mutual_information,
    separation_scores,
)
from npceemd.ensemble import decompose
from npceemd.pipeline import VERDICT_DEFECT
from conftest import (
    COMPARISON_DRAWS,
    DEFECT_HZ,
    DEGRADATION_SEED,
    FIXTURE_SEED,
    FIXTURE_SNR_DB,
    pearson,
)


def record(label: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {label}: {status} ({detail})")
    return ok


def over_draws(values) -> tuple[float, str]:
    """Mean of one per-draw statistic, and a detail listing every draw."""
    mean = float(np.mean(values))
    listed = ", ".join(f"{d}: {v:+.4f}" for d, v in zip(COMPARISON_DRAWS, values))
    return mean, f"mean {mean:+.4f} over draws {{{listed}}}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def noisy_fixture():
    """The noisy combined signal of each comparison draw, keyed by draw."""
    return {d: gen_combined(snr_db=FIXTURE_SNR_DB, seed=d) for d in COMPARISON_DRAWS}


@pytest.fixture(scope="module")
def components():
    return [
        Component("tone", gen_tone().samples),
        Component("impulses", gen_impulses().samples, impulsive=True),
    ]


def component_stats(imf_set, components):
    scores = {s.component_name: s for s in separation_scores(imf_set, components)}
    imp_env = analytic_envelope(components[1].samples)
    best_pair = 0.0
    for i in range(imf_set.n_imfs - 1):
        union = imf_set.imfs[i] + imf_set.imfs[i + 1]
        best_pair = max(
            best_pair, abs(pearson(analytic_envelope(union), imp_env))
        )
    return {
        "tone_corr": scores["tone"].correlation,
        "tone_leakage": scores["tone"].leakage,
        "impulse_corr": scores["impulses"].correlation,
        "impulse_pair_corr": best_pair,
    }


def draw_stats(signals, components):
    """Memoised component_stats of one decomposition of one draw.

    ``signals`` maps each draw to its noisy signal; draw d decomposes with
    master_seed d. Hurst only affects npceemd, so the other methods always
    run with its default and callers share their entries.
    """
    cache = {}

    def stats(draw, method, ensemble_size=10, hurst=EnsembleConfig.hurst):
        key = (draw, method, ensemble_size, hurst)
        if key not in cache:
            cfg = EnsembleConfig(
                method=method, ensemble_size=ensemble_size, hurst=hurst,
                master_seed=draw,
            )
            cache[key] = component_stats(decompose(signals[draw], cfg), components)
        return cache[key]

    return stats


@pytest.fixture(scope="module")
def noisy_stats(noisy_fixture, components):
    """Stats shared by the battery, the Hurst sweep and the size gaps,
    which reuse npceemd at Ne=10 and H=0.1, and eemd at Ne=10."""
    return draw_stats(noisy_fixture, components)


@pytest.fixture(scope="module")
def noisy_battery(noisy_stats):
    """Stats of every method at Ne=10, one entry per comparison draw."""
    return {
        method: [noisy_stats(d, method) for d in COMPARISON_DRAWS]
        for method in ("emd", "eemd", "ceemd", "ceemdan", "npceemd")
    }


# -------------------------------------------------------------- criterion 1

def test_criterion_1_reconstruction_identity():
    rng = np.random.default_rng(2024)
    lengths = np.round(
        np.exp(rng.uniform(math.log(256), math.log(32768), 48))
    ).astype(int)
    lengths = np.concatenate(([256, 32768], lengths))
    start = time.monotonic()
    worst_emd = 0.0
    worst_ceemdan = 0.0
    for i, n in enumerate(lengths):
        s = Signal(rng.standard_normal(int(n)), 1000.0)
        scale = float(np.max(np.abs(s.samples)))
        out = emd(s)
        worst_emd = max(
            worst_emd, float(np.max(np.abs(s.samples - out.reconstruct()))) / scale
        )
        cfg = EnsembleConfig(method="ceemdan", ensemble_size=2, master_seed=i)
        out = decompose(s, cfg)
        worst_ceemdan = max(
            worst_ceemdan,
            float(np.max(np.abs(s.samples - out.reconstruct()))) / scale,
        )
    elapsed = time.monotonic() - start
    ok = worst_emd <= 1e-9 and worst_ceemdan <= 1e-6 and elapsed < 60.0
    assert record(
        "criterion 1 reconstruction",
        ok,
        f"emd {worst_emd:.2e} <= 1e-9, ceemdan {worst_ceemdan:.2e} <= 1e-6, "
        f"{elapsed:.1f}s < 60s over {len(lengths)} signals",
    )


# -------------------------------------------------------------- criterion 2

def test_criterion_2_fgn_exactness():
    worst_z = 0.0
    for hurst in (0.1, 0.5, 0.9):
        reps, n = 200, 4096
        values = np.zeros((reps, 6))
        for r in range(reps):
            g = generate_fgn(
                FgnParams(hurst=hurst, sigma=1.0, length=n, seed=(2025, r))
            )
            values[r, 0] = np.mean(g * g)
            for lag in range(1, 6):
                values[r, lag] = np.mean(g[:-lag] * g[lag:])
        mean = values.mean(axis=0)
        stderr = values.std(axis=0, ddof=1) / np.sqrt(reps)
        for lag in range(6):
            theory = fgn_autocovariance(hurst, 1.0, lag)
            worst_z = max(worst_z, abs(mean[lag] - theory) / stderr[lag])
    white = generate_fgn(FgnParams(hurst=0.5, sigma=1.0, length=100_000, seed=11))
    lag1 = float(np.mean(white[:-1] * white[1:]) / np.var(white))
    ok = worst_z <= 3.0 and abs(lag1) <= 0.013
    assert record(
        "criterion 2 fGn exactness",
        ok,
        f"worst |z| {worst_z:.2f} <= 3 over H in (0.1,0.5,0.9) lags 0-5; "
        f"H=0.5 lag-1 {lag1:+.4f} within 0.013",
    )


# -------------------------------------------------------------- criterion 3

def test_criterion_3_mi_oracle():
    rng = np.random.default_rng(77)
    worst_err = 0.0
    for rho in (0.0, 0.5, 0.9):
        z = rng.standard_normal((5000, 2))
        x = z[:, 0]
        y = rho * z[:, 0] + math.sqrt(1.0 - rho * rho) * z[:, 1]
        estimate = knn_mutual_information(x, y, 3)
        closed_form = -0.5 * math.log(1.0 - rho * rho) if rho else 0.0
        worst_err = max(worst_err, abs(estimate - closed_form))

    # exact agreement with an O(N^2) brute-force neighbour oracle
    z = rng.standard_normal((2000, 2))
    x = z[:, 0]
    y = 0.6 * z[:, 0] + 0.8 * z[:, 1]
    k, n = 3, 2000
    dx = np.abs(x[:, None] - x[None, :])
    dy = np.abs(y[:, None] - y[None, :])
    dz = np.maximum(dx, dy)
    np.fill_diagonal(dz, np.inf)
    eps = np.partition(dz, k - 1, axis=1)[:, k - 1]
    nx = ((dx < eps[:, None]).sum(axis=1) - 1).astype(float)
    ny = ((dy < eps[:, None]).sum(axis=1) - 1).astype(float)
    brute = float(
        digamma(float(n)) + digamma(float(k))
        - np.mean(digamma(nx + 1.0) + digamma(ny + 1.0))
    )
    production = knn_mutual_information(x, y, k)
    exact = abs(production - brute) <= 1e-12
    ok = worst_err <= 0.05 and exact
    assert record(
        "criterion 3 MI oracle",
        ok,
        f"worst closed-form error {worst_err:.4f} <= 0.05 nats; "
        f"brute-force agreement {abs(production - brute):.1e}",
    )


# -------------------------------------------------------------- criterion 4

def test_criterion_4_clean_signal_replication(clean_combined, components):
    start = time.monotonic()
    cfg = EnsembleConfig(method="npceemd", ensemble_size=10, master_seed=FIXTURE_SEED)
    ours = component_stats(decompose(clean_combined, cfg), components)
    plain = component_stats(emd(clean_combined), components)
    elapsed = time.monotonic() - start
    ok = (
        ours["tone_corr"] >= 0.95
        and ours["impulse_corr"] >= 0.8
        and plain["tone_corr"] < 0.95
        and elapsed < 120.0
    )
    assert record(
        "criterion 4 clean-signal replication",
        ok,
        f"npceemd tone {ours['tone_corr']:.4f} >= 0.95, "
        f"impulse {ours['impulse_corr']:.4f} >= 0.8; "
        f"emd tone {plain['tone_corr']:.4f} < 0.95; {elapsed:.0f}s < 120s",
    )


# -------------------------------------------------------------- criterion 5

def test_criterion_5_tone_ordering(noisy_battery):
    diffs = [
        ours["tone_corr"] - plain["tone_corr"]
        for ours, plain in zip(noisy_battery["npceemd"], noisy_battery["emd"])
    ]
    mean, detail = over_draws(diffs)
    assert record(
        "criterion 5 tone ordering",
        mean > 0.0,
        f"npceemd tone - emd tone {detail} > 0",
    )


def test_criterion_5_ceemd_impulse_splitting(noisy_battery):
    single, single_detail = over_draws(
        [abs(s["impulse_corr"]) for s in noisy_battery["ceemd"]]
    )
    pair, pair_detail = over_draws(
        [s["impulse_pair_corr"] for s in noisy_battery["ceemd"]]
    )
    ok = single < 0.9 and pair >= 0.9
    assert record(
        "criterion 5 ceemd impulse splitting",
        ok,
        f"best |single| {single_detail} < 0.9, "
        f"best adjacent union {pair_detail} >= 0.9",
    )


def test_criterion_5_ceemdan_tone_leakage(noisy_battery):
    diffs = [
        worse["tone_leakage"] - ours["tone_leakage"]
        for worse, ours in zip(noisy_battery["ceemdan"], noisy_battery["npceemd"])
    ]
    mean, detail = over_draws(diffs)
    assert record(
        "criterion 5 ceemdan leakage",
        mean > 0.0,
        f"ceemdan leakage - npceemd leakage {detail} > 0",
    )


# -------------------------------------------------------------- criterion 6

@pytest.fixture(scope="module")
def hurst_sweep_rho(noisy_stats):
    """Spearman(H, npceemd tone leakage) over the H grid, one per draw."""
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    rhos = []
    for d in COMPARISON_DRAWS:
        leakages = [noisy_stats(d, "npceemd", hurst=h)["tone_leakage"] for h in grid]
        rhos.append(float(spearmanr(grid, leakages).statistic))
    return rhos


def test_criterion_6_hurst_leakage_trend(hurst_sweep_rho):
    mean, detail = over_draws(hurst_sweep_rho)
    assert record(
        "criterion 6 hurst leakage trend",
        mean > 0.5,
        f"spearman(H, tone leakage) over H grid 0.1..0.9 {detail} > 0.5",
    )


def test_hurst_trend_is_positive(hurst_sweep_rho):
    # softer directional invariant behind criterion 6
    mean, detail = over_draws(hurst_sweep_rho)
    assert record(
        "hurst trend positivity",
        mean > 0.0,
        f"spearman(H, tone leakage) {detail} > 0",
    )


# -------------------------------------------------------------- criterion 7

@pytest.fixture(scope="module")
def ensemble_size_gaps(noisy_stats):
    """Relative tone-correlation gap (Ne=100 vs Ne=10) per method, one per draw."""
    gaps = {}
    for method in ("eemd", "npceemd"):
        gaps[method] = []
        for d in COMPARISON_DRAWS:
            tone = {
                size: noisy_stats(d, method, ensemble_size=size)["tone_corr"]
                for size in (10, 100)
            }
            gaps[method].append((tone[100] - tone[10]) / abs(tone[100]))
    return gaps


def test_criterion_7_eemd_needs_large_ensembles(ensemble_size_gaps):
    mean, detail = over_draws(ensemble_size_gaps["eemd"])
    assert record(
        "criterion 7 eemd ensemble-size gap",
        mean > 0.10,
        f"eemd relative tone gap (100 vs 10) {detail} > 0.10",
    )


def test_criterion_7_npceemd_is_size_insensitive(ensemble_size_gaps):
    mean, detail = over_draws(ensemble_size_gaps["npceemd"])
    assert record(
        "criterion 7 npceemd size insensitivity",
        abs(mean) < 0.10,
        f"npceemd relative tone gap (100 vs 10) {detail}, |mean| < 0.10",
    )


# -------------------------------------------------------------- criterion 8

def test_criterion_8_degradation_end_to_end(degradation_run, minute_440):
    start = time.monotonic()
    specimen = minute_440
    cfg = EnsembleConfig(
        method="npceemd", ensemble_size=10, master_seed=DEGRADATION_SEED
    )
    report = diagnose(specimen, cfg, target_hz=DEFECT_HZ)
    confirmed = report.verdict == VERDICT_DEFECT
    harmonics = len(report.detection.matched_bins) if report.detection else 0
    target_bin = int(round(DEFECT_HZ / report.spectrum.resolution_hz))
    dominant_bin = 1 + int(np.argmax(report.spectrum.amplitudes[1:]))
    dominant_ok = abs(dominant_bin - target_bin) <= 1

    imf_set = decompose(specimen, cfg)
    complement = np.zeros(len(specimen))
    for i in report.rejected_indices:
        complement += imf_set.imfs[i - 1]
    complement_found = detect_defect_peak(
        envelope_spectrum(Signal(complement, specimen.sample_rate_hz)), DEFECT_HZ
    ).found

    baseline_ok = {}
    for method, expected in (("eemd", False), ("ceemd", True), ("ceemdan", False)):
        base_cfg = EnsembleConfig(
            method=method, ensemble_size=10, master_seed=DEGRADATION_SEED
        )
        base = diagnose_kurtosis_baseline(specimen, base_cfg, target_hz=DEFECT_HZ)
        baseline_ok[method] = (base.verdict == VERDICT_DEFECT) == expected
    elapsed = time.monotonic() - start
    ok = (
        confirmed
        and harmonics >= 2
        and dominant_ok
        and not complement_found
        and all(baseline_ok.values())
        and elapsed < 300.0
    )
    assert record(
        "criterion 8 degradation end-to-end",
        ok,
        f"mi verdict {report.verdict} (selected {report.selected_indices}), "
        f"{harmonics} harmonics, dominant bin {dominant_bin} vs target "
        f"{target_bin}, complement found={complement_found}, baselines "
        f"{baseline_ok}, {elapsed:.0f}s < 300s",
    )


# -------------------------------------------------------------- criterion 9

def test_criterion_9_false_alarm_calibration():
    cfg = EnsembleConfig(method="npceemd", ensemble_size=10, master_seed=1)
    confirmed = 0
    for seed in range(100):
        rng = np.random.default_rng((9000, seed))
        s = Signal(rng.standard_normal(2048), 10000.0)
        report = diagnose(s, cfg, target_hz=DEFECT_HZ)
        confirmed += report.verdict == VERDICT_DEFECT
    assert record(
        "criterion 9 false-alarm calibration",
        confirmed <= 1,
        f"{confirmed}/100 white-noise runs confirmed (allowed at most 1)",
    )


# ------------------------------------------------------------- criterion 10

def test_criterion_10_determinism(tmp_path):
    from npceemd.cli import main

    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        sim = main(["simulate", "defect", "--severity", "20", "--seed", "7",
                    "--out", str(out)])
        assert sim == 0
        diag = main(["diagnose", str(out / "defect.csv"), "--method", "npceemd",
                     "--seed", "7", "--target-hz", f"{DEFECT_HZ!r}",
                     "--out", str(out)])
        assert diag == 0
        blobs = {}
        for name in sorted(p.name for p in out.iterdir()):
            blobs[name] = (out / name).read_bytes()
        outputs.append(blobs)
    identical = outputs[0] == outputs[1]
    assert record(
        "criterion 10 determinism",
        identical,
        f"{len(outputs[0])} artifacts byte-identical across reruns: {identical}",
    )
