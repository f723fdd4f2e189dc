import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npceemd import Signal, kurtosis, mix_to_snr, rms
from npceemd.signals import ZeroVariance


def test_signal_rejects_short_nonfinite_and_bad_rate():
    with pytest.raises(ValueError):
        Signal(np.zeros(3), 100.0)
    with pytest.raises(ValueError):
        Signal(np.array([0.0, 1.0, np.nan, 2.0]), 100.0)
    with pytest.raises(ValueError):
        Signal(np.zeros(8), 0.0)


@pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_signal_rejects_a_non_finite_rate(rate):
    # an infinite rate gives bin spacings of zero, which the envelope
    # spectrum divides by
    with pytest.raises(ValueError, match="finite"):
        Signal(np.zeros(8), rate)


def test_rms_all_zero():
    assert rms(Signal(np.zeros(16), 10.0)) == 0.0


def test_rms_sinusoid_analytic():
    t = np.arange(100000) / 1000.0  # 2000 whole 20 Hz periods
    value = rms(Signal(10.0 * np.sin(2 * np.pi * 20.0 * t), 1000.0))
    assert value == pytest.approx(10.0 / math.sqrt(2.0), rel=1e-3)


def test_rms_tone_fixture_against_direct_summation(tone_signal):
    # independent oracle: compensated summation, no numpy reductions
    total = math.fsum(float(v) * float(v) for v in tone_signal.samples)
    expected = math.sqrt(total / len(tone_signal))
    assert rms(tone_signal) == pytest.approx(expected, rel=1e-12)
    assert rms(tone_signal) == pytest.approx(7.071, abs=1e-3)


def test_kurtosis_alternating_is_one():
    x = np.tile([-1.0, 1.0], 50)
    assert kurtosis(Signal(x, 10.0)) == pytest.approx(1.0, abs=1e-12)


def test_kurtosis_gaussian_monte_carlo():
    draws = np.random.default_rng(1234).standard_normal(1_000_000)
    assert kurtosis(Signal(draws, 1.0)) == pytest.approx(3.0, abs=0.05)


def test_kurtosis_constant_raises():
    with pytest.raises(ZeroVariance):
        kurtosis(Signal(np.full(32, 2.5), 10.0))


@given(scale=st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-6))
@settings(max_examples=50, deadline=None)
def test_rms_absolute_homogeneity(scale):
    x = np.linspace(-1.0, 2.0, 64)
    s = Signal(x, 10.0)
    scaled = Signal(scale * x, 10.0)
    assert rms(scaled) == pytest.approx(abs(scale) * rms(s), rel=1e-12)


@given(
    a=st.floats(-100.0, 100.0).filter(lambda a: abs(a) > 1e-3),
    b=st.floats(-100.0, 100.0),
)
@settings(max_examples=50, deadline=None)
def test_kurtosis_affine_invariance(a, b):
    x = np.sin(np.arange(128) * 0.73) + 0.2 * np.cos(np.arange(128) * 2.1)
    base = kurtosis(Signal(x, 10.0))
    moved = kurtosis(Signal(a * x + b, 10.0))
    assert moved == pytest.approx(base, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_of_two_scale_keeps_the_bits():
    # Bit for bit, kurtosis is the same and rms scales with the record from
    # peaks of 2**-1001 up to the largest float; the raw moments underflowed
    # or overflowed towards either end.
    x = np.random.default_rng(12).standard_normal(1000)
    x[::100] += 8.0
    x /= 2.0 * np.max(np.abs(x))
    base_kurtosis, base_rms = kurtosis(x), rms(x)
    for k in range(-1000, 1024):
        y = np.ldexp(x, k)
        assert kurtosis(y) == base_kurtosis, k
        assert rms(y) == math.ldexp(base_rms, k), k


def _realized_snr_db(clean: Signal, noisy: Signal) -> float:
    w = noisy.samples - clean.samples
    return 10.0 * np.log10(np.mean(clean.samples**2) / np.mean(w**2))


def test_mix_to_snr_zero_db_is_exact():
    clean = Signal(np.sin(np.arange(4096) * 0.05), 100.0)
    noisy = mix_to_snr(clean, 7, 0.0)
    assert _realized_snr_db(clean, noisy) == pytest.approx(0.0, abs=0.01)


def test_mix_to_snr_minus_30_db(clean_combined):
    noisy = mix_to_snr(clean_combined, 3, -30.0)
    assert _realized_snr_db(clean_combined, noisy) == pytest.approx(-30.0, abs=0.01)


def test_mix_to_snr_deterministic(clean_combined):
    first = mix_to_snr(clean_combined, 11, -5.0)
    second = mix_to_snr(clean_combined, 11, -5.0)
    assert np.array_equal(first.samples, second.samples)


def test_mix_to_snr_zero_power_raises():
    with pytest.raises(ValueError, match="zero power"):
        mix_to_snr(Signal(np.zeros(64), 10.0), 1, 0.0)


@given(snr_db=st.floats(-40.0, 40.0))
@settings(max_examples=40, deadline=None)
def test_mix_to_snr_tracks_request(snr_db):
    clean = Signal(np.sin(np.arange(1024) * 0.1), 50.0)
    noisy = mix_to_snr(clean, 5, snr_db)
    assert _realized_snr_db(clean, noisy) == pytest.approx(snr_db, abs=0.01)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mix_to_snr_commutes_with_power_of_two_scaling():
    # The mix is made at a unit peak, so a record of peak 2**-1000 is not
    # refused for zero power and one of peak 2**1000 does not overflow its
    # power; every scale gives the same mix scaled, bit for bit.
    x = np.sin(0.3 * np.arange(64))
    base = mix_to_snr(Signal(x, 100.0), 5, -3.0).samples
    for k in range(-1000, 1001):
        out = mix_to_snr(Signal(np.ldexp(x, k), 100.0), 5, -3.0).samples
        assert np.array_equal(out, np.ldexp(base, k)), k


def test_mix_to_snr_outgrowing_the_largest_float_raises():
    clean = Signal(np.ldexp(np.sin(0.3 * np.arange(64)), 1023), 100.0)
    with pytest.raises(ValueError, match="largest float"):
        mix_to_snr(clean, 5, -30.0)


@pytest.mark.parametrize("snr_db", [-3300.0, -math.inf, 3300.0, math.inf, math.nan])
def test_mix_to_snr_rejects_snr_db_without_a_power_ratio(snr_db):
    # 10**(snr_db/10) underflows to 0, overflows, or is not a number: the
    # error names the argument instead of failing deep in the arithmetic
    clean = Signal(np.sin(0.3 * np.arange(64)), 100.0)
    with pytest.raises(ValueError, match="snr_db"):
        mix_to_snr(clean, 5, snr_db)
