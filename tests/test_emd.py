import warnings

import numpy as np
import pytest

from npceemd import Signal, emd, find_extrema, sift_once, spline_envelope
from npceemd.emd import (
    SiftConfig,
    TooFewExtrema,
    imf_criterion_gap,
    zero_crossings,
)
from conftest import pearson


def test_find_extrema_single_period_sine():
    t = np.arange(1000) / 1000.0
    max_i, max_v, min_i, min_v = find_extrema(np.sin(2 * np.pi * t))
    assert max_i.size == 1 and min_i.size == 1
    assert max_v[0] == pytest.approx(1.0, abs=1e-4)
    assert min_v[0] == pytest.approx(-1.0, abs=1e-4)


def test_find_extrema_monotone_ramp():
    max_i, _, min_i, _ = find_extrema(np.linspace(0.0, 1.0, 50))
    assert max_i.size == 0 and min_i.size == 0


def test_find_extrema_plateau_midpoint():
    max_i, max_v, min_i, _ = find_extrema(np.array([0.0, 1.0, 1.0, 0.0]))
    assert list(max_i) == [1]
    assert max_v[0] == 1.0
    assert min_i.size == 0
    # even-length plateau rounds its midpoint down
    max_i, _, _, _ = find_extrema(np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0]))
    assert list(max_i) == [2]


def test_spline_envelope_two_end_knots_is_linear():
    n = 11
    env = spline_envelope(np.array([0, 10]), np.array([1.0, 3.0]), n)
    assert np.allclose(env, np.linspace(1.0, 3.0, n), atol=1e-9)


def test_spline_envelope_passes_through_knots():
    n = 400
    x = np.arange(n, dtype=float)
    poly = 1e-6 * (x - 200.0) ** 3 + 0.01 * x + 5.0
    knots = np.arange(20, n - 20, 10)
    env = spline_envelope(knots, poly[knots], n)
    assert np.max(np.abs(env[knots] - poly[knots])) <= 1e-9


def test_spline_envelope_reproduces_cubic_in_interior():
    # The natural end condition (y'' = 0) disagrees with a generic cubic at
    # the boundary knots; that error decays geometrically inward, so exact
    # reproduction is checked on the central third.
    n = 400
    x = np.arange(n, dtype=float)
    poly = 1e-6 * (x - 200.0) ** 3 + 0.01 * x + 5.0
    knots = np.arange(20, n - 20, 10)
    env = spline_envelope(knots, poly[knots], n)
    central = slice(133, 267)
    rel = np.max(np.abs(env[central] - poly[central])) / np.max(np.abs(poly))
    assert rel < 1e-6


def test_spline_envelope_sine_maxima_near_constant():
    t = np.arange(8000) / 1000.0
    x = np.sin(2 * np.pi * 5.0 * t)
    max_i, max_v, _, _ = find_extrema(x)
    env = spline_envelope(max_i, max_v, x.size)
    quarter = x.size // 4
    interior = env[quarter : 3 * quarter]
    assert np.all(np.abs(interior - 1.0) < 0.01)


def test_spline_envelope_too_few():
    with pytest.raises(TooFewExtrema):
        spline_envelope(np.array([], dtype=int), np.array([]), 100)


def test_sift_once_sine_is_near_identity():
    t = np.arange(4000) / 1000.0
    x = np.sin(2 * np.pi * 10.0 * t)
    out = sift_once(x)
    quarter = x.size // 4
    dev = np.max(np.abs(out[quarter : 3 * quarter] - x[quarter : 3 * quarter]))
    assert dev < 0.02


def test_sift_once_removes_offset():
    t = np.arange(4000) / 1000.0
    offset = 3.7
    out = sift_once(np.sin(2 * np.pi * 10.0 * t) + offset)
    assert abs(np.mean(out)) < 0.01 * offset


def test_sift_once_fixed_point_for_imf():
    t = np.arange(4000) / 1000.0
    x = np.sin(2 * np.pi * 10.0 * t)
    out = sift_once(x)
    sd = np.sum((x - out) ** 2) / np.sum(x**2)
    assert sd < SiftConfig().sd_threshold


def test_emd_pure_tone():
    t = np.arange(2000) / 1000.0
    s = Signal(np.sin(2 * np.pi * 20.0 * t), 1000.0)
    out = emd(s)
    best = max(abs(pearson(imf, s.samples)) for imf in out.imfs)
    assert best >= 0.99
    assert np.max(np.abs(out.residue)) < 0.05 * np.max(np.abs(s.samples))


def test_emd_monotone_ramp_gives_no_imfs():
    s = Signal(np.linspace(0.0, 5.0, 256), 100.0)
    out = emd(s)
    assert out.n_imfs == 0
    assert np.array_equal(out.residue, s.samples)


def test_emd_mode_mixing_on_combined_fixture(emd_clean_combined, tone_signal):
    # impulses interrupt the sift, so no single IMF isolates the tone
    best = max(
        abs(pearson(imf, tone_signal.samples)) for imf in emd_clean_combined.imfs
    )
    assert best < 0.99


def test_emd_reconstruction_random_signals():
    rng = np.random.default_rng(42)
    for _ in range(5):
        n = int(rng.integers(256, 4096))
        s = Signal(rng.standard_normal(n), 1000.0)
        out = emd(s)
        err = np.max(np.abs(s.samples - out.reconstruct()))
        assert err <= 1e-9 * np.max(np.abs(s.samples))


def test_emd_deterministic():
    rng = np.random.default_rng(9)
    s = Signal(rng.standard_normal(1024), 100.0)
    a, b = emd(s), emd(s)
    assert a.n_imfs == b.n_imfs
    for x, y in zip(a.imfs, b.imfs):
        assert np.array_equal(x, y)
    assert np.array_equal(a.residue, b.residue)


def test_emd_extreme_amplitude_scales_exactly():
    # At 2**600 (about 4e180) the Cauchy sums of squares would overflow;
    # the decomposition must still be an exact power-of-two copy.
    k = np.arange(4096)
    x = np.sin(0.05 * k) + 0.3 * np.sin(0.7 * k)
    scale = 2.0 ** 600
    base = emd(Signal(x, 100.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = emd(Signal(scale * x, 100.0))
    assert big.n_imfs == base.n_imfs
    for a, b in zip(base.imfs, big.imfs):
        assert np.array_equal(scale * a, b)
    assert np.array_equal(scale * base.residue, big.residue)


def test_emd_respects_max_imfs():
    rng = np.random.default_rng(5)
    s = Signal(rng.standard_normal(2048), 100.0)
    out = emd(s, SiftConfig(max_imfs=3))
    assert out.n_imfs <= 3


def test_imf_criterion_on_combined_fixture(emd_clean_combined):
    for imf in emd_clean_combined.imfs:
        assert imf_criterion_gap(imf) <= 1


def test_imf_ordering_on_combined_fixture(emd_clean_combined):
    counts = [zero_crossings(imf) for imf in emd_clean_combined.imfs]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
