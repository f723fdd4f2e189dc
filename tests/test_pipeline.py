import hashlib

import numpy as np
import pytest

from npceemd import (
    Component,
    EnsembleConfig,
    Signal,
    diagnose,
    separation_scores,
)
from npceemd import pipeline
from npceemd.emd import ImfSet
from npceemd.pipeline import (
    SELECTORS,
    VERDICT_DEFECT,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_DEFECT,
)
from conftest import DEFECT_HZ, DEGRADATION_SEED


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

    def test_threshold_monotonicity(self, minute_440, npceemd_cfg):
        loose = diagnose(minute_440, npceemd_cfg, mi_threshold=0.05,
                         target_hz=DEFECT_HZ)
        tight = diagnose(minute_440, npceemd_cfg, mi_threshold=0.3,
                         target_hz=DEFECT_HZ)
        assert set(tight.selected_indices) <= set(loose.selected_indices)

    def test_empty_selection_is_inconclusive(self, minute_440, npceemd_cfg):
        report = diagnose(minute_440, npceemd_cfg, mi_threshold=1e9,
                          target_hz=DEFECT_HZ)
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


# 64 samples at 1 kHz: 64 scored points, so k may be 1..62; Nyquist 500 Hz.
EITHER_SELECTOR = {
    "threshold-nan": ({"mi_threshold": float("nan")}, "mi_threshold must be finite"),
    "threshold-inf": ({"mi_threshold": float("inf")}, "mi_threshold must be finite"),
    "target-zero": ({"target_hz": 0.0}, "target_hz must lie in"),
    "target-negative": ({"target_hz": -1.0}, "target_hz must lie in"),
    "target-nan": ({"target_hz": float("nan")}, "target_hz must lie in"),
    "target-nyquist": ({"target_hz": 500.0}, "target_hz must lie in"),
    "target-huge": ({"target_hz": 1e9}, "target_hz must lie in"),
}
BAD_ARGUMENTS = [
    pytest.param({"select": "entropy"}, "select must be one of", id="select"),
    pytest.param({"k": 0}, r"k must lie in \[1, 62\]", id="mi-k-zero"),
    pytest.param({"k": 63}, r"k must lie in \[1, 62\]", id="mi-k-too-large"),
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


def test_k_bound_follows_the_mi_stride(decompositions):
    # 20001 samples are scored at stride 2, on 10001 points
    s = Signal(np.sin(np.arange(20001, dtype=float)), 1000.0)
    with pytest.raises(ValueError, match=r"\[1, 9999\] for 10001 scored points"):
        diagnose(s, EnsembleConfig(method="emd"), k=10000)
    assert decompositions == []


@pytest.mark.parametrize("k", [1, 62])
def test_k_at_either_bound_is_scored(k):
    s = Signal(np.sin(np.arange(64, dtype=float) * 0.7) + np.arange(64) * 0.01, 1000.0)
    report = diagnose(s, EnsembleConfig(method="emd"), k=k, target_hz=100.0)
    assert report.mi_scores and all(score.k == k for score in report.mi_scores)


def test_kurtosis_selection_ignores_k(decompositions):
    s = Signal(np.sin(np.arange(64, dtype=float) * 0.7), 1000.0)
    report = diagnose(s, EnsembleConfig(method="emd"), select="kurtosis", k=0)
    assert report.method_variant == "kurtosis_baseline"
    assert len(decompositions) == 1


class TestSeparationScores:
    def make_set(self, arrays, fs=1000.0):
        n = arrays[0].size
        return ImfSet([np.asarray(a, float) for a in arrays], np.zeros(n), fs)

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

    def test_length_mismatch_rejected(self):
        imf_set = self.make_set([np.zeros(64)])
        with pytest.raises(ValueError):
            separation_scores(imf_set, [Component("c", np.zeros(32))])


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
