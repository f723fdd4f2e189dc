import importlib
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.signal import find_peaks

from npceemd import (
    DefectSimParams,
    EnsembleConfig,
    Signal,
    decompose,
    emd,
    find_extrema,
    gen_combined,
    gen_defect_signal,
    generate_fgn,
    sift_once,
    spline_envelope,
)
from npceemd.emd import (
    SiftConfig,
    TooFewExtrema,
    _mirror_extend,
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


def _extrema_reference(x):
    """The extrema rule as a plain loop: each run of equal neighbours is one
    candidate at its midpoint rounded down, and the two end runs never count."""
    runs = []
    start = 0
    for i in range(1, len(x) + 1):
        if i == len(x) or x[i] != x[start]:
            runs.append(((start + i - 1) // 2, x[start]))
            start = i
    max_i, max_v, min_i, min_v = [], [], [], []
    for (_, left), (mid, v), (_, right) in zip(runs, runs[1:], runs[2:]):
        if v > left and v > right:
            max_i.append(mid)
            max_v.append(v)
        elif v < left and v < right:
            min_i.append(mid)
            min_v.append(v)
    return max_i, max_v, min_i, min_v


def _series_with_ties(rng, n):
    kind = rng.integers(4)
    if kind == 0:
        return rng.standard_normal(n)
    if kind == 1:  # integer values: ties and plateaus everywhere
        return rng.integers(-2, 3, n).astype(float)
    if kind == 2:  # runs of random length, long plateaus
        return np.repeat(rng.standard_normal(n), rng.integers(1, 6, n))[:n]
    # monotone stretches broken by a few reversals and flats
    steps = rng.choice([-1.0, 0.0, 1.0], n, p=[0.1, 0.2, 0.7])
    return np.cumsum(steps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_find_extrema_matches_loop_reference():
    # Against the loop above and, index for index, SciPy's find_peaks on x
    # and -x: plateaus inside, a third with plateaus forced at both ends
    # and a third at peaks where a difference of two samples would overflow.
    rng = np.random.default_rng(2024)
    for case in range(20000):
        n = int(rng.integers(4, 201))
        x = _series_with_ties(rng, n)
        if case % 3 == 1:
            head, tail = rng.integers(1, n // 2 + 1, 2)
            x[:head] = x[head]
            x[n - tail :] = x[n - tail - 1]
        elif case % 3 == 2 and np.any(x):
            x = x / np.max(np.abs(x)) * 2.0**1023
        got = find_extrema(x)
        want = _extrema_reference(x.tolist())
        for g, w in zip(got[::2], want[::2]):
            assert g.tolist() == w
        for g, w in zip(got[1::2], want[1::2]):
            assert np.array_equal(g, np.array(w, dtype=float))
        assert np.array_equal(got[0], find_peaks(x)[0]), x
        assert np.array_equal(got[2], find_peaks(-x)[0]), x


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_find_extrema_rejects_non_finite_samples(bad):
    # NaN orders against nothing, so no extremum rule is defined for it;
    # +-inf is refused with it, as Signal refuses both.
    x = np.array([0.0, 1.0, bad, 1.0, 0.0, 2.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        find_extrema(x)


def _metamorphic_series(seed, n, thirds):
    x = np.random.default_rng(seed).standard_normal(n)
    return np.round(3.0 * x) / 3.0 if thirds else x


def _assert_maps_exactly(out, base, f):
    assert out.n_imfs == base.n_imfs
    for a, b in zip(out.imfs, base.imfs):
        assert np.array_equal(a, f(b))
    assert np.array_equal(out.residue, f(base.residue))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(16, 600),
    thirds=st.booleans(),
    k=st.integers(-60, 60),
)
@settings(max_examples=60, deadline=None)
def test_emd_sign_flip_and_power_of_two_scaling_are_exact(seed, n, thirds, k):
    # Sifting only compares, adds and solves linear systems, and negation and
    # scaling by 2**k commute with each of those roundings exactly.
    x = _metamorphic_series(seed, n, thirds)
    base = emd(Signal(x, 100.0))
    _assert_maps_exactly(emd(Signal(-x, 100.0)), base, np.negative)
    scale = 2.0 ** k
    _assert_maps_exactly(emd(Signal(scale * x, 100.0)), base, lambda v: scale * v)


def _reversal_record(record, minute_440):
    if record == "two-tone":
        k = np.arange(4096)
        return np.sin(0.05 * k) + 0.3 * np.sin(0.7 * k)
    if record == "specimen":
        return minute_440.samples
    return np.random.default_rng(int(record.split("-")[1])).standard_normal(2048)


@pytest.mark.parametrize(
    "sift",
    [SiftConfig(), SiftConfig(max_sift_iterations=10, sd_threshold=1e-12)],
    ids=["sd-stop", "ten-sifts"],
)
@pytest.mark.parametrize("record", ["two-tone", "specimen", *(f"normal-{s}" for s in range(6))])
def test_emd_commutes_with_time_reversal(record, sift, minute_440):
    # Reversal reorders the roundings of the spline solves and the sums, not
    # the sifting itself, so the modes of the reversed record are the
    # reversed modes to round-off (1.5e-15 at most here). The records are
    # plateau-free: a plateau's extremum is its midpoint rounded down, which
    # reversal moves by one sample.
    x = _reversal_record(record, minute_440)
    base = emd(Signal(x, 100.0), sift)
    out = emd(Signal(x[::-1], 100.0), sift)
    assert out.n_imfs == base.n_imfs
    peak = np.max(np.abs(x))
    for a, b in zip(out.imfs + [out.residue], base.imfs + [base.residue]):
        assert np.max(np.abs(a[::-1] - b)) <= 1e-12 * peak


@pytest.mark.parametrize(
    "indices", [[30, 10, 50], [10, 30, 30, 50]], ids=["unsorted", "duplicate"]
)
def test_spline_envelope_rejects_indices_not_strictly_ascending(indices):
    idx = np.array(indices)
    with pytest.raises(ValueError, match="strictly ascending") as err:
        spline_envelope(idx, np.ones(idx.size), 100)
    assert not isinstance(err.value, TooFewExtrema)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_spline_envelope_rejects_non_finite_values(bad):
    # An overflowed sift must fail here rather than spread NaN downstream.
    with pytest.raises(ValueError) as err:
        spline_envelope(np.array([10, 30, 50]), np.array([1.0, bad, 2.0]), 100)
    assert not isinstance(err.value, TooFewExtrema)


def test_spline_envelope_rejects_values_not_one_per_index():
    with pytest.raises(ValueError) as err:
        spline_envelope(np.array([10, 30, 50]), np.array([1.0, 2.0]), 100)
    assert not isinstance(err.value, TooFewExtrema)


def _assert_matches_cubic_spline(indices, values, n):
    """spline_envelope against scipy's CubicSpline on the same knots, bit for
    bit, including the sign of zeros."""
    pos, mag = _mirror_extend(np.asarray(indices), np.asarray(values, dtype=float), n)
    want = CubicSpline(pos, mag, bc_type="natural")(np.arange(n))
    got = spline_envelope(indices, values, n)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _knot_values(rng, kind, size):
    if kind == "normal":
        return rng.standard_normal(size)
    if kind == "plateau":  # neighbouring knots of equal value
        return np.repeat(rng.standard_normal(2), size)[:size]
    if kind == "signed-zero":
        return rng.choice([0.0, -0.0, 1.0, -1.0], size)
    return rng.standard_normal(size) * 10.0 ** rng.integers(-200, 200, size)


@pytest.mark.parametrize("kind", ["normal", "plateau", "signed-zero", "scaled"])
def test_spline_envelope_matches_cubic_spline_on_small_knot_sets(kind):
    # 1 to 5 indices, each end on the end sample (no reflection there) or
    # inside (reflected), so 2 and 3 knots after the extension come up.
    rng = np.random.default_rng(77)
    for k in range(1, 6):
        for at_start in (True, False):
            for at_end in (True, False):
                for _ in range(10):
                    n = int(rng.integers(k + 4, 80))
                    inner = np.sort(rng.choice(np.arange(1, n - 1), k, replace=False))
                    if at_start:
                        inner[0] = 0
                    if at_end:
                        inner[-1] = n - 1
                    idx = np.unique(inner)
                    _assert_matches_cubic_spline(idx, _knot_values(rng, kind, idx.size), n)


def test_spline_envelope_matches_cubic_spline_on_sift_envelopes(emd_clean_combined):
    # Envelopes of real sifts: the first passes over a 5000-sample specimen
    # and over the noisy 32768-sample fixture, and the final IMFs of the
    # clean fixture, whose slow modes have few knots.
    series = []
    for x in (
        gen_defect_signal(DefectSimParams(seed=11), 4.0).samples,
        gen_combined(snr_db=-30.0, seed=0).samples,
    ):
        h = x
        for _ in range(3):
            series.append(h)
            h = sift_once(h)
    series.extend(emd_clean_combined.imfs)
    checked = 0
    for h in series:
        max_i, max_v, min_i, min_v = find_extrema(h)
        for idx, val in ((max_i, max_v), (min_i, min_v)):
            if idx.size:
                _assert_matches_cubic_spline(idx, val, h.size)
                checked += 1
    assert checked >= 20


def _pin_records():
    # fGn plus a sine, random walks and quantized counts at short and
    # specimen lengths, and one record of the fixture's length.
    for n in (8, 37, 100, 5000):
        sine = np.sin(0.3 * np.arange(n))
        for seed in range(8):
            rng = np.random.default_rng(seed)
            for hurst in (0.1, 0.5, 0.9):
                yield generate_fgn(hurst, n, (seed, n)) + sine
            yield np.cumsum(rng.standard_normal(n))
            yield np.round(8.0 * rng.standard_normal(n))
    yield generate_fgn(0.1, 32768, 3) + np.sin(0.3 * np.arange(32768))


def _cubic_spline_bytes(indices, values, n):
    pos, mag = _mirror_extend(indices, values, n)
    return CubicSpline(pos, mag, bc_type="natural")(np.arange(n)).tobytes()


def test_spline_envelope_matches_cubic_spline_on_every_emd_sift(monkeypatch):
    # Every envelope that emd builds, compared by bytes so the sign of zero
    # counts, and each again with knots pinned on both end samples: the
    # evaluation is checked where an end is mirrored and where the last knot
    # is the end sample itself.
    module = importlib.import_module("npceemd.emd")
    built = []

    def recorded(indices, values, n):
        env = spline_envelope(indices, values, n)
        built.append((indices, values, n, env))
        return env

    monkeypatch.setattr(module, "spline_envelope", recorded)
    for x in _pin_records():
        emd(Signal(x, 100.0))
    monkeypatch.undo()
    pinned = 0
    for idx, val, n, env in built:
        assert env.tobytes() == _cubic_spline_bytes(idx, val, n)
        if idx[0] > 0 and idx[-1] < n - 1:
            idx = np.concatenate(([0], idx, [n - 1]))
            val = np.concatenate((val[:1], val, val[-1:]))
            assert spline_envelope(idx, val, n).tobytes() == _cubic_spline_bytes(idx, val, n)
            pinned += 1
    assert len(built) >= 2000 and pinned >= 2000


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


def test_emd_scans_each_residue_once(monkeypatch):
    # The mode check's extrema scan is handed to the mode's first sift, so
    # only a final check that ends the decomposition adds a scan.
    module = importlib.import_module("npceemd.emd")
    calls = Counter()

    def counted(name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("find_extrema", "sift_once"):
        monkeypatch.setattr(module, name, counted(name))
    t = np.arange(2000) / 1000.0
    x = sum(np.sin(2 * np.pi * f * t) for f in (7.0, 40.0, 180.0))
    out = emd(Signal(x + 0.3 * t, 1000.0))
    assert out.n_imfs >= 3
    assert calls["sift_once"] <= calls["find_extrema"] <= calls["sift_once"] + 1


def test_an_infinite_sd_threshold_sifts_each_mode_once(monkeypatch):
    # Every Cauchy SD is below inf, so each mode stops after its first sift:
    # the same modes, bit for bit, as a cap of one sift per mode.
    module = importlib.import_module("npceemd.emd")
    calls = Counter()
    sift_once = module.sift_once

    def counted(*args, **kwargs):
        calls["sift_once"] += 1
        return sift_once(*args, **kwargs)

    monkeypatch.setattr(module, "sift_once", counted)
    s = Signal(np.random.default_rng(9).standard_normal(512), 100.0)
    out = emd(s, SiftConfig(sd_threshold=math.inf))
    assert out.n_imfs >= 3
    assert calls["sift_once"] == out.n_imfs
    capped = emd(s, SiftConfig(max_sift_iterations=1))
    assert all(np.array_equal(a, b) for a, b in zip(out.imfs, capped.imfs, strict=True))


def test_emd_pure_tone():
    t = np.arange(2000) / 1000.0
    s = Signal(np.sin(2 * np.pi * 20.0 * t), 1000.0)
    out = emd(s)
    best = max(abs(pearson(imf, s.samples)) for imf in out.imfs)
    assert best >= 0.99
    assert np.max(np.abs(out.residue)) < 0.05 * np.max(np.abs(s.samples))


def test_emd_monotone_ramp_gives_no_imfs():
    # the mode stops are shared, so CEEMDAN must stop where EMD does
    s = Signal(np.linspace(0.0, 5.0, 256), 100.0)
    for out in (emd(s), decompose(s, EnsembleConfig(method="ceemdan"))):
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-1000, -1010, -997, 1022, 1023])
def test_emd_is_exact_at_the_float_extremes(k, minute_440):
    # emd sifts at a unit peak, so near the largest float the spline terms
    # cannot overflow and near the smallest normal the sifting never runs
    # in subnormals: the modes are the unit-peak ones scaled by 2**k
    x = minute_440.samples / np.max(np.abs(minute_440.samples))
    base = emd(Signal(x, minute_440.sample_rate_hz))
    out = emd(Signal(np.ldexp(x, k), minute_440.sample_rate_hz))
    _assert_maps_exactly(out, base, lambda v: np.ldexp(v, k))


def test_emd_respects_max_imfs():
    rng = np.random.default_rng(5)
    s = Signal(rng.standard_normal(2048), 100.0)
    sift = SiftConfig(max_imfs=3)
    for out in (emd(s, sift), decompose(s, EnsembleConfig(method="ceemdan", sift=sift))):
        assert out.n_imfs == 3


@pytest.mark.parametrize("field", ["max_imfs", "max_sift_iterations"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, False, "3"])
def test_sift_config_rejects_a_count_that_is_not_an_integer(field, value):
    # max_imfs=2.5 used to give 3 modes and True 1 mode; max_sift_iterations=True
    # ran one iteration, and 2.5 raised TypeError from inside the sift
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        SiftConfig(**{field: value})
    assert getattr(SiftConfig(**{field: np.int64(3)}), field) == 3


def test_imf_criterion_on_combined_fixture(emd_clean_combined):
    for imf in emd_clean_combined.imfs:
        assert imf_criterion_gap(imf) <= 1


def test_imf_ordering_on_combined_fixture(emd_clean_combined):
    counts = [zero_crossings(imf) for imf in emd_clean_combined.imfs]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
