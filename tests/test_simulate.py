import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import spearmanr

from npceemd import (
    DefectSimParams,
    analytic_envelope,
    detect_defect_peak,
    envelope_spectrum,
    gen_combined,
    gen_defect_signal,
    gen_degradation_run,
    gen_impulses,
    gen_tone,
    rms,
)
from npceemd import simulate
from npceemd.noise import MAX_FGN_LENGTH
from npceemd.simulate import default_severity_law


class TestToneFixture:
    def test_sample_count_and_rate(self, tone_signal):
        assert len(tone_signal) == 32768
        assert tone_signal.sample_rate_hz == 32768.0

    def test_rms(self, tone_signal):
        assert rms(tone_signal) == pytest.approx(7.071, abs=0.01)

    def test_peak_value_at_quarter_period(self, tone_signal):
        # t = k/fs hits 1/80 s exactly at k = 409.6 -> use argmax instead
        assert tone_signal.samples.max() == pytest.approx(10.0, abs=1e-4)
        # value at the exact quarter-period instant via the defining formula
        assert 10.0 * math.sin(2 * math.pi * 20.0 * (1.0 / 80.0)) == pytest.approx(
            10.0, abs=1e-9
        )


class TestImpulseFixture:
    def test_gating_period(self, impulse_signal):
        env = np.abs(impulse_signal.samples)
        # decay resets every 1/20 s: the sample right after each reset is large
        period = 32768 // 20
        assert 32768 / 20 == pytest.approx(1638.4)
        early = env[:200].max()
        late = env[period - 200 : period].max()
        assert early > 20.0 * late

    def test_amplitude_bound(self, impulse_signal):
        assert np.max(np.abs(impulse_signal.samples)) <= 100.0

    def test_envelope_spectrum_peak_at_20_hz(self, impulse_signal):
        spec = envelope_spectrum(impulse_signal)
        peak = spec.frequencies_hz[np.argmax(spec.amplitudes)]
        assert abs(peak - 20.0) <= spec.resolution_hz


class TestCombinedFixture:
    def test_clean_is_exact_sum(self, clean_combined, tone_signal, impulse_signal):
        assert np.array_equal(
            clean_combined.samples, tone_signal.samples + impulse_signal.samples
        )

    def test_noisy_realized_snr(self, clean_combined):
        noisy = gen_combined(snr_db=-30.0, seed=5)
        w = noisy.samples - clean_combined.samples
        snr = 10 * np.log10(np.mean(clean_combined.samples**2) / np.mean(w**2))
        assert snr == pytest.approx(-30.0, abs=0.01)

    def test_noisy_requires_seed(self):
        with pytest.raises(ValueError):
            gen_combined(snr_db=0.0)

    def test_deterministic(self):
        a = gen_combined(snr_db=10.0, seed=3)
        b = gen_combined(snr_db=10.0, seed=3)
        assert np.array_equal(a.samples, b.samples)


class TestDefectSignal:
    def test_zero_severity_zero_noise_is_silent(self):
        p = DefectSimParams(noise_sigma=0.0, seed=1)
        assert np.array_equal(gen_defect_signal(p, 0.0).samples, np.zeros(5000))

    def test_burst_count(self):
        # a slow shaft keeps every burst amplitude near full scale, so all
        # floor(duration / T') = 33 launches are countable in the envelope
        p = DefectSimParams(f_m=0.1, noise_sigma=0.0, jitter_frac=0.0, seed=1)
        x = gen_defect_signal(p, 5.0).samples
        env = analytic_envelope(x)
        onsets = np.nonzero((env[1:] > 5.0) & (env[:-1] <= 5.0))[0]
        assert onsets.size == math.floor(0.5 / 0.015) == 33

    def test_envelope_peak_at_defect_frequency(self):
        p = DefectSimParams(seed=2)
        strong = gen_defect_signal(p, 40.0)  # high severity beats the noise
        spec = envelope_spectrum(strong)
        detection = detect_defect_peak(spec, 1.0 / 0.015)
        assert detection.found
        peak = spec.frequencies_hz[1:][np.argmax(spec.amplitudes[1:])]
        assert abs(peak - 1.0 / 0.015) <= spec.resolution_hz

    def test_burst_decay_rate(self):
        p = DefectSimParams(noise_sigma=0.0, jitter_frac=0.0, seed=3)
        x = gen_defect_signal(p, 1.0).samples
        env = analytic_envelope(x)
        onset = int(round(0.015 * p.sample_rate_hz))
        one_ms = int(round(0.001 * p.sample_rate_hz))
        ratio = env[onset + one_ms] / env[onset]
        assert ratio == pytest.approx(math.exp(-p.B * 0.001), rel=0.05)

    def test_linear_in_severity(self):
        p = DefectSimParams(noise_sigma=0.0, seed=4)
        one = gen_defect_signal(p, 1.5).samples
        two = gen_defect_signal(p, 3.0).samples
        assert np.array_equal(two, 2.0 * one)

    def test_onset_jitter_bounded(self):
        p = DefectSimParams(f_m=0.1, noise_sigma=0.0, jitter_frac=0.02, seed=5)
        x = gen_defect_signal(p, 10.0).samples
        env = analytic_envelope(x)
        threshold = 0.2 * env.max()
        rising = np.nonzero((env[1:] > threshold) & (env[:-1] <= threshold))[0]
        t = rising / p.sample_rate_hz
        nominal = np.arange(1, t.size + 1) * p.T_prime
        # allow one sample of detection slack on top of the jitter bound
        slack = p.jitter_frac * p.T_prime + 2.0 / p.sample_rate_hz
        assert np.all(np.abs(t - nominal) <= slack)

    def test_onsets_stay_ascending_at_the_largest_jitter(self, monkeypatch):
        # Consecutive onsets differ by T' * (1 + jitter_frac * (u2 - u1)) with
        # u uniform in [-1, 1), which stays positive up to jitter_frac = 0.5.
        # At 0.9, seed 3 put 4 of 33 onsets out of order and dropped bursts;
        # DefectSimParams now refuses it. One lookup of the onsets and the
        # record's end in the sample times gives every burst's bounds.
        looked_up = []
        searchsorted = np.searchsorted

        def spy(a, v, side="left"):
            looked_up.append(v)
            return searchsorted(a, v, side=side)

        monkeypatch.setattr(np, "searchsorted", spy)
        for seed in range(20):
            looked_up.clear()
            p = DefectSimParams(jitter_frac=0.5, noise_sigma=0.0, seed=seed)
            gen_defect_signal(p, 1.0)
            assert len(looked_up) == 1 and looked_up[0][-1] == p.duration_s
            onsets = looked_up[0][:-1]
            assert onsets.size == 33
            assert np.all(np.diff(onsets) > 0), seed
        with pytest.raises(ValueError, match="^jitter_frac must be at most 0.5"):
            DefectSimParams(jitter_frac=0.9, seed=3)


def per_burst(p: DefectSimParams, severity: float) -> tuple[np.ndarray, np.ndarray]:
    """The record and its onsets from one burst at a time, as
    gen_defect_signal was first written: the oracle for its vectorized pass."""
    rng = np.random.default_rng(p.seed)
    n = int(round(p.duration_s * p.sample_rate_hz))
    t = np.arange(n, dtype=np.float64) / p.sample_rate_hz
    n_bursts = int(math.floor(p.duration_s / p.T_prime))
    jitter = rng.uniform(-1.0, 1.0, n_bursts) * p.jitter_frac * p.T_prime
    onsets = (np.arange(1, n_bursts + 1) * p.T_prime + jitter).clip(min=0.0)
    x = np.zeros(n)
    for i, tau in enumerate(onsets):
        amp = severity * p.amplitude_scale * math.cos(2.0 * math.pi * p.f_m * tau)
        t_end = onsets[i + 1] if i + 1 < n_bursts else p.duration_s
        lo = int(np.searchsorted(t, tau, side="left"))
        hi = int(np.searchsorted(t, t_end, side="left"))
        if lo >= hi:
            continue
        u = t[lo:hi] - tau
        x[lo:hi] += amp * np.exp(-p.B * u) * np.cos(2.0 * math.pi * p.f_n * u)
    if p.noise_sigma > 0:
        x += p.noise_sigma * rng.standard_normal(n)
    return x, onsets


# (params, whether some seed of 0-19 launches its last burst past the end)
BURST_CASES = {
    "defaults": ({}, False),
    # 33 * T' = 0.495 s: a jitter above 5 ms puts the last onset past 0.5 s
    "largest-jitter": ({"jitter_frac": 0.5}, True),
    "noise-free": ({"noise_sigma": 0.0}, False),
    "no-burst": ({"duration_s": 0.01}, False),
    "duration-not-a-multiple": ({"duration_s": 0.4937}, False),
    # and here one above 0.1 ms does
    "last-onset-past-the-end": ({"duration_s": 0.4951, "jitter_frac": 0.5, "noise_sigma": 0.0},
                                True),
}


@pytest.mark.parametrize("case", BURST_CASES)
def test_same_bytes_as_one_burst_at_a_time(case):
    params, past_the_end = BURST_CASES[case]
    last_onsets = []
    for seed in range(20):
        p = DefectSimParams(**params, seed=seed)
        for severity in (0, 1, 7.3, 10):
            expected, onsets = per_burst(p, severity)
            assert gen_defect_signal(p, severity).samples.tobytes() == expected.tobytes(), (
                seed, severity)
        last_onsets.extend(onsets[-1:])
    assert (not last_onsets) == (case == "no-burst")
    assert any(t > p.duration_s for t in last_onsets) == past_the_end


class TestDegradationRun:
    def test_single_specimen(self):
        run = gen_degradation_run(DefectSimParams(seed=6), 1)
        assert len(run.specimens) == 1

    def test_rms_trend(self):
        # The default severity law is exactly flat for the first 300
        # minutes, so early ranks are iid coin flips and the full-run
        # Spearman tops out near 0.71 (oracle-derived); the degradation
        # segment itself must rank almost perfectly.
        run = gen_degradation_run(DefectSimParams(seed=0), 500)
        rms_values = np.array([rms(s) for s in run.specimens])
        minutes = np.arange(1, 501)
        assert spearmanr(minutes, rms_values).statistic >= 0.65
        late = slice(299, 500)
        assert spearmanr(minutes[late], rms_values[late]).statistic >= 0.95

    def test_seed_prefix_stability(self):
        # specimen m is identical no matter how long the run is
        p = DefectSimParams(seed=7)
        short = gen_degradation_run(p, 10)
        long = gen_degradation_run(p, 25)
        assert np.array_equal(short.specimen(10).samples, long.specimen(10).samples)

    def test_shared_geometry(self):
        run = gen_degradation_run(DefectSimParams(seed=8), 3)
        assert len({len(s) for s in run.specimens}) == 1
        assert len({s.sample_rate_hz for s in run.specimens}) == 1

    def test_no_specimen_is_built_until_one_is_read(self, monkeypatch):
        built = []
        make = simulate.gen_defect_signal
        monkeypatch.setattr(simulate, "gen_defect_signal",
                            lambda p, severity: built.append(p.seed) or make(p, severity))
        p = DefectSimParams(seed=9)
        run = gen_degradation_run(p, 500)
        assert built == []
        specimen = run.specimen(440)
        child_seeds = np.random.SeedSequence(p.seed).generate_state(500, dtype=np.uint64)
        assert built == [child_seeds[439]]
        expected = make(replace(p, seed=child_seeds[439]), default_severity_law(440))
        assert specimen.samples.tobytes() == expected.samples.tobytes()
        assert specimen.sample_rate_hz == expected.sample_rate_hz


def test_invalid_params_rejected():
    with pytest.raises(ValueError, match="f_n"):
        DefectSimParams(f_n=6000.0)  # above Nyquist
    with pytest.raises(ValueError, match="T_prime"):
        DefectSimParams(T_prime=0.0001)  # shorter than a resonance cycle
    # f_n is checked before the period test divides by it
    for f_n, t_prime in [(0.0, 0.015), (-5.0, 0.015), (-100.0, -0.001)]:
        with pytest.raises(ValueError, match="f_n"):
            DefectSimParams(f_n=f_n, T_prime=t_prime)
    for severity in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="severity"):
            gen_defect_signal(DefectSimParams(), severity)
    with pytest.raises(ValueError):
        gen_degradation_run(DefectSimParams(), 0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "field", ["f_m", "T_prime", "f_n", "B", "amplitude_scale", "jitter_frac", "noise_sigma"]
)
def test_burst_parameters_must_be_finite(field, value):
    # each would otherwise give a record without its bursts or its noise,
    # and a manifest holding NaN or Infinity
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DefectSimParams(**{field: value})


@pytest.mark.parametrize(
    "params,message",
    [({"sample_rate_hz": math.inf}, "sample_rate_hz must be finite and positive"),
     ({"duration_s": math.inf}, "samples"), ({"sample_rate_hz": 1e12}, "samples"),
     ({"sample_rate_hz": 1e300, "duration_s": 1e300}, "samples"),
     ({"sample_rate_hz": float(MAX_FGN_LENGTH) + 1.0, "duration_s": 1.0}, "samples")],
    ids=["inf-rate", "inf-duration", "huge-rate", "product-overflows", "one-over-cap"],
)
def test_sample_count_must_be_finite_and_capped(params, message):
    # gen_defect_signal allocates round(duration_s * sample_rate_hz) samples;
    # an infinite rate is refused as a rate before the count is taken
    with pytest.raises(ValueError, match=message):
        DefectSimParams(**params)


def test_sample_count_at_the_cap_is_accepted():
    DefectSimParams(sample_rate_hz=float(MAX_FGN_LENGTH), duration_s=1.0)
