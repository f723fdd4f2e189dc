import numpy as np
import pytest
from scipy.signal import hilbert

from npceemd import (
    Signal,
    analytic_envelope,
    detect_defect_peak,
    envelope_spectrum,
)
from conftest import pearson


FS = 8192.0
N = 8192
T = np.arange(N) / FS


def am_signal(mod_hz=60.0, depth=0.5, carrier_hz=1000.0) -> Signal:
    modulator = 1.0 + depth * np.sin(2 * np.pi * mod_hz * T)
    return Signal(modulator * np.sin(2 * np.pi * carrier_hz * T), FS)


class TestAnalyticEnvelope:
    def test_pure_tone_envelope_is_flat(self):
        env = analytic_envelope(Signal(3.0 * np.sin(2 * np.pi * 400 * T), FS))
        interior = env[N // 10 : -N // 10]
        assert np.all(np.abs(interior - 3.0) < 0.03)

    def test_am_envelope_tracks_modulator(self):
        env = analytic_envelope(am_signal())
        modulator = 1.0 + 0.5 * np.sin(2 * np.pi * 60.0 * T)
        interior = slice(N // 10, -N // 10)
        assert pearson(env[interior], modulator[interior]) >= 0.99

    def test_zero_signal(self):
        assert np.array_equal(analytic_envelope(Signal(np.zeros(64), FS)), np.zeros(64))

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        env = analytic_envelope(Signal(rng.standard_normal(2048), FS))
        assert np.all(env >= 0.0)

    def test_parseval_energy_identity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4096)
        x -= x.mean()
        analytic = hilbert(x)
        # one-sided construction doubles the non-DC/Nyquist energy
        spectrum = np.fft.fft(x)
        corrections = (np.abs(spectrum[0]) ** 2 + np.abs(spectrum[2048]) ** 2) / 4096
        expected = 2.0 * np.sum(x * x) - corrections
        assert np.sum(np.abs(analytic) ** 2) == pytest.approx(expected, rel=1e-6)

    def test_equals_the_modulus_of_scipy_hilbert(self):
        # Bit for bit, at every length 8-399 (odd and even) and at the
        # record lengths of the workloads.
        rng = np.random.default_rng(5)
        for n in [*range(8, 400), 5000, 32767, 32768]:
            x = rng.standard_normal(n)
            assert np.array_equal(analytic_envelope(x), np.abs(hilbert(x))), n


class TestEnvelopeSpectrum:
    def test_am_peak_at_modulation_frequency(self):
        spec = envelope_spectrum(am_signal())
        peak = spec.frequencies_hz[np.argmax(spec.amplitudes)]
        assert abs(peak - 60.0) <= spec.resolution_hz

    def test_impulse_fixture_peak_and_harmonics(self, impulse_signal):
        spec = envelope_spectrum(impulse_signal)
        peak = spec.frequencies_hz[np.argmax(spec.amplitudes)]
        assert abs(peak - 20.0) <= spec.resolution_hz
        floor = np.median(spec.amplitudes[1:])
        for harmonic in (40.0, 60.0):
            b = int(round(harmonic / spec.resolution_hz))
            assert spec.amplitudes[b - 1 : b + 2].max() > floor

    def test_unmodulated_tone_has_no_peak(self):
        # a flat envelope leaves only float dust in the spectrum, so the
        # meaningful assertion is absolute: nothing anywhere near the
        # carrier amplitude scale
        spec = envelope_spectrum(Signal(np.sin(2 * np.pi * 500 * T), FS))
        assert np.max(spec.amplitudes) < 1e-12

    def test_dc_bin_is_zero(self):
        spec = envelope_spectrum(am_signal())
        assert spec.amplitudes[0] == 0.0

    def test_scale_equivariance(self):
        base = envelope_spectrum(am_signal())
        doubled = envelope_spectrum(
            Signal(2.0 * am_signal().samples, FS)
        )
        assert np.allclose(doubled.amplitudes, 2.0 * base.amplitudes, rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-1000, 1005, 1015, 1022, 1023])
    def test_power_of_two_scaling_is_exact(self, k, minute_440):
        # At 2**1015 the unscaled FFTs overflow; the spectrum must still be
        # the unit-peak spectrum scaled by 2**k, bit for bit. The square
        # wave's envelope peaks at 4.2 times the record next to each jump, so
        # at 2**1022 it outgrows the largest float unless it is formed at
        # the unit peak
        square = np.where(np.arange(4096) // 256 % 2 == 0, 0.999, -0.999)
        specimen = minute_440.samples / np.max(np.abs(minute_440.samples))
        rate = minute_440.sample_rate_hz
        for x in (specimen, square):
            assert np.array_equal(np.ldexp(np.ldexp(x, k), -k), x)
            base = envelope_spectrum(Signal(x, rate))
            scaled = envelope_spectrum(Signal(np.ldexp(x, k), rate))
            assert np.array_equal(scaled.amplitudes, np.ldexp(base.amplitudes, k))


class TestDetectDefectPeak:
    def test_am_fixture_found(self):
        detection = detect_defect_peak(envelope_spectrum(am_signal()), 60.0)
        assert detection.found
        assert len(detection.matched_bins) >= 1

    def test_impulse_fixture_harmonics(self, impulse_signal):
        detection = detect_defect_peak(envelope_spectrum(impulse_signal), 20.0)
        assert detection.found
        assert len(detection.matched_bins) >= 2

    def test_white_noise_false_alarm_rate(self):
        found = 0
        for seed in range(100):
            rng = np.random.default_rng((1000, seed))
            spec = envelope_spectrum(Signal(rng.standard_normal(4096), FS))
            if detect_defect_peak(spec, 60.0).found:
                found += 1
        assert found <= 1

    def test_target_above_nyquist(self):
        spec = envelope_spectrum(am_signal())
        with pytest.raises(ValueError, match="Nyquist"):
            detect_defect_peak(spec, FS / 2.0)
