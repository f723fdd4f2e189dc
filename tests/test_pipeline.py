import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from npceemd import (
    Component,
    DefectSimParams,
    EnsembleConfig,
    Signal,
    diagnose,
    gen_defect_signal,
    separation_scores,
)
from npceemd import decompose, mi, pipeline, workers
from npceemd.emd import ImfSet
from npceemd.ensemble import METHODS
from npceemd.pipeline import (
    SELECTORS,
    VERDICT_DEFECT,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_DEFECT,
)
from conftest import (
    DEFECT_HZ,
    DEGENERATE_LENGTHS,
    DEGENERATE_SHAPES,
    DEGRADATION_SEED,
    VERDICTS,
)


@pytest.fixture(scope="module")
def npceemd_cfg():
    return EnsembleConfig(method="npceemd", ensemble_size=10,
                          master_seed=DEGRADATION_SEED)


class TestDiagnose:
    def test_defect_confirmed_on_late_specimen(self, minute_440, npceemd_cfg):
        report = diagnose(minute_440, npceemd_cfg, target_hz=DEFECT_HZ)
        assert report.verdict == VERDICT_DEFECT
        assert report.detection is not None and report.detection.found
        # informative modes form a low-order prefix-like subset
        assert report.selected_indices
        assert max(report.selected_indices) <= 3

    def test_partition_invariant(self, minute_440, npceemd_cfg):
        report = diagnose(minute_440, npceemd_cfg, target_hz=DEFECT_HZ)
        combined = sorted(report.selected_indices + report.rejected_indices)
        total = len(report.selected_indices) + len(report.rejected_indices)
        assert combined == list(range(1, total + 1))

    def test_threshold_monotonicity(self, minute_440, npceemd_cfg, monkeypatch):
        monkeypatch.setattr(mi, "MI_THRESHOLD", 0.05)
        loose = diagnose(minute_440, npceemd_cfg, target_hz=DEFECT_HZ)
        monkeypatch.setattr(mi, "MI_THRESHOLD", 0.3)
        tight = diagnose(minute_440, npceemd_cfg, target_hz=DEFECT_HZ)
        assert set(tight.selected_indices) <= set(loose.selected_indices)

    def test_empty_selection_is_inconclusive(self, minute_440, npceemd_cfg, monkeypatch):
        monkeypatch.setattr(mi, "MI_THRESHOLD", 1e9)
        report = diagnose(minute_440, npceemd_cfg, target_hz=DEFECT_HZ)
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert report.selected_indices == ()
        assert report.detection is None

    def test_deterministic_digest(self, minute_440, npceemd_cfg):
        first = diagnose(minute_440, npceemd_cfg, target_hz=DEFECT_HZ)
        second = diagnose(minute_440, npceemd_cfg, target_hz=DEFECT_HZ)
        assert first.combined_signal_digest == second.combined_signal_digest
        assert first.selected_indices == second.selected_indices

    def test_digest_is_sha256_of_combined(self, minute_440, npceemd_cfg):
        from npceemd.ensemble import decompose

        report = diagnose(minute_440, npceemd_cfg, target_hz=DEFECT_HZ)
        imf_set = decompose(minute_440, npceemd_cfg)
        combined = np.zeros(len(minute_440))
        for i in report.selected_indices:
            combined += imf_set.imfs[i - 1]
        assert report.combined_signal_digest == hashlib.sha256(
            combined.tobytes()
        ).hexdigest()

    def test_no_target_path(self, minute_440, npceemd_cfg):
        report = diagnose(minute_440, npceemd_cfg)
        assert report.defect_frequency_hz is None
        assert report.detection is None
        assert report.verdict in (VERDICT_DEFECT, VERDICT_NO_DEFECT)


class TestKurtosisBaseline:
    def test_selects_single_imf(self, minute_440):
        cfg = EnsembleConfig(method="ceemd", ensemble_size=10,
                             master_seed=DEGRADATION_SEED)
        report = diagnose(minute_440, cfg, select="kurtosis", target_hz=DEFECT_HZ)
        assert len(report.selected_indices) == 1
        assert report.method_variant == "kurtosis_baseline"
        assert report.mi_scores == ()

    def test_degenerate_set_is_inconclusive(self):
        # a constant signal decomposes to zero IMFs -> empty selection
        s = Signal(np.linspace(0.0, 1.0, 64), 100.0)
        cfg = EnsembleConfig(method="emd")
        report = diagnose(s, cfg, select="kurtosis", target_hz=10.0)
        assert report.verdict == VERDICT_INCONCLUSIVE


@pytest.fixture()
def decompositions(monkeypatch):
    calls = []
    real = pipeline.decompose

    def counting_decompose(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "decompose", counting_decompose)
    return calls


@pytest.mark.parametrize("method", ["emd", "ceemdan"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
# The ids are the calls these cases made before ``select`` replaced the
# second entry point, so the cases keep their names.
@pytest.mark.parametrize("select", SELECTORS, ids=["diagnose", "diagnose_kurtosis_baseline"])
def test_short_record_rejected_before_decomposing(decompositions, select, n, method):
    # the envelope spectrum needs 8 samples; a shorter record must fail at
    # the edge, not after a full decomposition
    s = Signal(np.sin(np.arange(n, dtype=float)), 1000.0)
    cfg = EnsembleConfig(method=method, ensemble_size=2, master_seed=0)
    with pytest.raises(ValueError, match="at least 8 samples"):
        diagnose(s, cfg, select=select)
    assert decompositions == []


# 64 samples at 1 kHz: Nyquist 500 Hz.
EITHER_SELECTOR = {
    "target-zero": ({"target_hz": 0.0}, "target_hz must lie in"),
    "target-negative": ({"target_hz": -1.0}, "target_hz must lie in"),
    "target-nan": ({"target_hz": float("nan")}, "target_hz must lie in"),
    "target-nyquist": ({"target_hz": 500.0}, "target_hz must lie in"),
    "target-huge": ({"target_hz": 1e9}, "target_hz must lie in"),
}
BAD_ARGUMENTS = [
    pytest.param({"select": "entropy"}, "select must be one of", id="select"),
] + [
    pytest.param({"select": sel, **kwargs}, message, id=f"{sel}-{case}")
    for sel in SELECTORS for case, (kwargs, message) in EITHER_SELECTOR.items()
]


@pytest.mark.parametrize("kwargs,message", BAD_ARGUMENTS)
def test_bad_argument_rejected_before_decomposing(decompositions, kwargs, message):
    s = Signal(np.sin(np.arange(64, dtype=float)), 1000.0)
    with pytest.raises(ValueError, match=message):
        diagnose(s, EnsembleConfig(method="emd"), **kwargs)
    assert decompositions == []


@pytest.mark.parametrize("k", [1, 62])
def test_k_at_either_bound_is_scored(k, monkeypatch):
    # 64 samples are scored on 64 points, so the estimator takes k from 1 to
    # 62; score_imfs reads mi.KSG_K when it runs and records the k it used.
    monkeypatch.setattr(mi, "KSG_K", k)
    s = Signal(np.sin(np.arange(64, dtype=float) * 0.7) + np.arange(64) * 0.01, 1000.0)
    report = diagnose(s, EnsembleConfig(method="emd"), target_hz=100.0)
    assert report.mi_scores and all(score.k == k for score in report.mi_scores)


def test_kurtosis_selection_ignores_k(decompositions, monkeypatch):
    # a k the MI estimator would refuse never reaches the kurtosis baseline
    monkeypatch.setattr(mi, "KSG_K", 0)
    s = Signal(np.sin(np.arange(64, dtype=float) * 0.7), 1000.0)
    report = diagnose(s, EnsembleConfig(method="emd"), select="kurtosis")
    assert report.method_variant == "kurtosis_baseline"
    assert len(decompositions) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
@pytest.mark.parametrize("method", METHODS)
def test_degenerate_record_has_a_defined_outcome(method, shape):
    # Finite modes from decompose, and from diagnose under either selector
    # a verdict or, below the envelope's 8 samples, ValueError; at peaks
    # from the subnormal 1e-310 up to the largest power of two.
    cfg = EnsembleConfig(method=method, ensemble_size=2, master_seed=1)
    for n in DEGENERATE_LENGTHS:
        for scale in (1.0, 1e300, 1e-300, 1e-310, 2.0**1023):
            s = Signal(scale * DEGENERATE_SHAPES[shape](n), 1000.0)
            imf_set = decompose(s, cfg)
            modes = (*imf_set.imfs, imf_set.residue)
            assert all(np.all(np.isfinite(m)) for m in modes), (n, scale)
            for select in SELECTORS:
                if n < 8:
                    with pytest.raises(ValueError, match="at least 8 samples"):
                        diagnose(s, cfg, select=select)
                else:
                    verdict = diagnose(s, cfg, select=select).verdict
                    assert verdict in VERDICTS, (n, scale, select)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["emd", "npceemd"])
def test_kurtosis_selection_holds_at_any_peak(method):
    # The kurtosis of a mode peaking near 1e-100 used to divide 0 by 0, and
    # near 1e80 and above its fourth powers overflowed to an empty selection.
    x = gen_defect_signal(DefectSimParams(seed=DEGRADATION_SEED), 8.0)
    unit = x.samples / np.max(np.abs(x.samples))
    cfg = EnsembleConfig(method=method, ensemble_size=2, master_seed=DEGRADATION_SEED)
    reports = [
        diagnose(Signal(scale * unit, x.sample_rate_hz), cfg, select="kurtosis",
                 target_hz=DEFECT_HZ)
        for scale in (1.0, 1e-300, 1e-100, 1e80, 1e200, 2.0**1023)
    ]
    assert reports[0].verdict == VERDICT_DEFECT and reports[0].selected_indices == (1,)
    for report in reports[1:]:
        assert report.verdict == VERDICT_DEFECT and report.selected_indices == (1,)
        assert report.detection.peak_ratio == pytest.approx(
            reports[0].detection.peak_ratio, rel=1e-12)


class TestSeparationScores:
    def make_set(self, arrays):
        n = arrays[0].size
        return ImfSet([np.asarray(a, float) for a in arrays], np.zeros(n))

    def test_exact_copy_scores_one(self):
        rng = np.random.default_rng(8)
        component = rng.standard_normal(512)
        imf_set = self.make_set([component.copy(), rng.standard_normal(512)])
        (score,) = separation_scores(imf_set, [Component("c", component)])
        assert score.best_imf_index == 1
        assert score.correlation == pytest.approx(1.0, abs=1e-12)
        assert score.leakage == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_component_scores_near_zero(self):
        rng = np.random.default_rng(9)
        imfs = [rng.standard_normal(4096) for _ in range(3)]
        probe = rng.standard_normal(4096)
        # project out every IMF so the component is exactly orthogonal
        for imf in imfs:
            centred = imf - imf.mean()
            probe = probe - np.dot(probe, centred) / np.dot(centred, centred) * centred
        imf_set = self.make_set(imfs)
        (score,) = separation_scores(imf_set, [Component("noise", probe)])
        assert abs(score.correlation) < 0.05

    def test_impulsive_component_uses_envelope(self):
        t = np.arange(4096) / 4096.0
        envelope = 1.0 + 0.8 * np.sin(2 * np.pi * 12.0 * t)
        burst = envelope * np.sin(2 * np.pi * 700.0 * t)
        # same envelope on a phase-shifted carrier: raw correlation dies,
        # envelope correlation survives
        shifted = envelope * np.sin(2 * np.pi * 700.0 * t + np.pi / 2)
        imf_set = self.make_set([shifted])
        (raw_score,) = separation_scores(imf_set, [Component("c", burst)])
        (env_score,) = separation_scores(
            imf_set, [Component("c", burst, impulsive=True)]
        )
        assert abs(raw_score.correlation) < 0.2
        assert env_score.correlation > 0.95

    def test_leakage_identity(self):
        rng = np.random.default_rng(10)
        component = rng.standard_normal(512)
        noisy_copy = component + 0.4 * rng.standard_normal(512)
        imf_set = self.make_set([noisy_copy])
        (score,) = separation_scores(imf_set, [Component("c", component)])
        assert score.leakage == pytest.approx(1.0 - score.correlation**2, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_of_two_scale_keeps_the_bits(self):
        # Correlations are scale-free: the IMFs and components scaled by
        # 2**k give the same bits from k = -1000 up to peaks near the
        # largest float, where the raw dot products overflowed.
        rng = np.random.default_rng(12)
        t = np.arange(512) / 512.0
        tone = np.sin(2 * np.pi * 9.0 * t)
        burst = (1.0 + 0.8 * np.sin(2 * np.pi * 5.0 * t)) * np.sin(2 * np.pi * 100.0 * t)
        arrays = [tone, burst, tone + 0.3 * rng.standard_normal(512),
                  burst + 0.3 * rng.standard_normal(512)]
        tone, burst, *imfs = [a / (2.0 * np.max(np.abs(a))) for a in arrays]

        def scores(k):
            components = [Component("tone", np.ldexp(tone, k)),
                          Component("burst", np.ldexp(burst, k), impulsive=True)]
            return separation_scores(self.make_set([np.ldexp(a, k) for a in imfs]), components)

        base = scores(0)
        assert [s.best_imf_index for s in base] == [1, 2]
        for k in range(-1000, 1024):
            assert scores(k) == base, k

    def test_length_mismatch_rejected(self):
        imf_set = self.make_set([np.zeros(64)])
        with pytest.raises(ValueError):
            separation_scores(imf_set, [Component("c", np.zeros(32))])

    @pytest.mark.skipif(workers.usable_cpus() < 2, reason="needs 2 CPUs for 2 BLAS threads")
    def test_correlations_do_not_depend_on_the_blas_thread_count(self):
        # np.dot handed 32768-sample products to a multithreaded BLAS, whose
        # sums changed in their last digits with its thread count.
        probe = (
            "from npceemd import Component, EnsembleConfig, decompose, gen_combined, "
            "gen_impulses, gen_tone, separation_scores\n"
            "imf_set = decompose(gen_combined(0.0, 1), EnsembleConfig(method='emd'))\n"
            "components = [Component('tone', gen_tone().samples), "
            "Component('impulses', gen_impulses().samples, impulsive=True)]\n"
            "print([repr(s.correlation) for s in separation_scores(imf_set, components)])"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
        outs = [
            subprocess.run(
                [sys.executable, "-c", probe],
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, check=True, timeout=300,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outs[0] == outs[1]


class TestFalseAlarm:
    def test_white_noise_rarely_confirms(self):
        # quick 20-seed screen; the acceptance suite runs the full 100
        cfg = EnsembleConfig(method="npceemd", ensemble_size=10, master_seed=1)
        confirmed = 0
        for seed in range(20):
            rng = np.random.default_rng((4000, seed))
            s = Signal(rng.standard_normal(2048), 10000.0)
            report = diagnose(s, cfg, target_hz=DEFECT_HZ)
            confirmed += report.verdict == VERDICT_DEFECT
        assert confirmed == 0
