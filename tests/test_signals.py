import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npceemd import (
    DefectSimParams, EnsembleConfig, SiftConfig, Signal, detect_defect_peak, diagnose,
    envelope_spectrum, fgn_autocovariance, gen_defect_signal, gen_degradation_run,
    generate_fgn, generate_white, knn_mutual_information, kurtosis, mix_to_snr, rms,
)
from npceemd.signals import ZeroVariance


def test_signal_rejects_short_nonfinite_and_bad_rate():
    with pytest.raises(ValueError):
        Signal(np.zeros(3), 100.0)
    with pytest.raises(ValueError):
        Signal(np.array([0.0, 1.0, np.nan, 2.0]), 100.0)
    with pytest.raises(ValueError):
        Signal(np.zeros(8), 0.0)


# Every numeric config field and public scalar argument is walked through
# these inputs. Each is either rejected with a ValueError whose message
# starts with the field's name, or listed below as accepted, with why.
VALUES = {
    "True": True, "False": False, "2.5": 2.5, "2.0": 2.0, "nan": math.nan, "inf": math.inf,
    "-inf": -math.inf, "0": 0, "-1": -1, "None": None, "'3'": "3", "int64(3)": np.int64(3),
}
# No bool, None or string is a number, and no float, integral or not, is
# an integer: these are refused as "<field> must be a real number" or
# "<field> must be an integer" before any bound is tried.
NOT_REAL = {"True", "False", "None", "'3'"}
NOT_INT = NOT_REAL | {"2.5", "2.0", "nan", "inf", "-inf"}
NUMPY_INT = {"int64(3)": "a numpy integer is an integer"}
POSITIVE = {v: "a finite positive value" for v in ("2.5", "2.0", "int64(3)")}
ANY_FINITE = {v: "any finite value" for v in ("2.5", "2.0", "0", "-1", "int64(3)")}
NON_FINITE = ("nan", "inf", "-inf")

_RNG = np.random.default_rng(2)
RECORD = Signal(_RNG.standard_normal(64), 100.0)  # Nyquist 50 Hz
NOISE = _RNG.standard_normal(64)


def _field(cls, name):
    return lambda v: cls(**{name: v})


def _finite(label, accepted, **expect):
    """A burst parameter of DefectSimParams: finite, then its own bounds."""
    name = label.split(".")[1]
    prefixes = {v: f"{name} must be finite" for v in NON_FINITE}
    return label, "real", _field(DefectSimParams, name), accepted, {**prefixes, **expect}


# label "Owner.field", kind, make(value), accepted {value: why}, and the
# message prefix of a rejection where it says more than the field's name
FIELDS = [
    ("SiftConfig.max_sift_iterations", "int", _field(SiftConfig, "max_sift_iterations"),
     NUMPY_INT, {}),
    ("SiftConfig.sd_threshold", "real", _field(SiftConfig, "sd_threshold"),
     {**POSITIVE, "inf": "each mode stops after one sift: every Cauchy SD is below it"}, {}),
    ("SiftConfig.max_imfs", "int", _field(SiftConfig, "max_imfs"),
     {**NUMPY_INT, "None": "no cap given: floor(log2 n) modes"}, {}),
    ("EnsembleConfig.ensemble_size", "int", _field(EnsembleConfig, "ensemble_size"),
     NUMPY_INT, {}),
    ("EnsembleConfig.noise_scale", "real", _field(EnsembleConfig, "noise_scale"), POSITIVE, {}),
    ("EnsembleConfig.hurst", "real", _field(EnsembleConfig, "hurst"), {}, {}),
    ("EnsembleConfig.master_seed", "int", _field(EnsembleConfig, "master_seed"),
     {**NUMPY_INT, "0": "seeds start at 0"}, {}),
    ("EnsembleConfig.sift", "sift", _field(EnsembleConfig, "sift"), {}, {}),
    _finite("DefectSimParams.f_m", {**ANY_FINITE, "0": "unmodulated bursts; cos is even in f_m"}),
    _finite("DefectSimParams.T_prime",
            {v: "a period past the 0.5 s record launches no burst" for v in POSITIVE}),
    # the default T' of 15 ms is shorter than one cycle of so low a resonance
    _finite("DefectSimParams.f_n", {},
            **{v: "T_prime must exceed one resonance cycle" for v in POSITIVE}),
    # a decay rate: a negative one grows each burst until exp overflows
    _finite("DefectSimParams.B", {**POSITIVE, "0": "undamped: each burst ends at the next onset"},
            **{"-1": "B must be nonnegative"}),
    _finite("DefectSimParams.amplitude_scale", {**ANY_FINITE, "-1": "the record is linear in it"}),
    _finite("DefectSimParams.jitter_frac", {"0": "onsets exactly T' apart"},
            **{v: "jitter_frac must be at most 0.5" for v in POSITIVE}),
    _finite("DefectSimParams.noise_sigma", {**POSITIVE, "0": "no noise"}),
    # a positive rate below twice the default f_n of 2 kHz is f_n's fault
    ("DefectSimParams.sample_rate_hz", "real", _field(DefectSimParams, "sample_rate_hz"), {},
     {**{v: "f_n must lie in (0, sample_rate_hz / 2)" for v in POSITIVE},
      **{v: "sample_rate_hz must be finite and positive" for v in (*NON_FINITE, "0", "-1")}}),
    ("DefectSimParams.duration_s", "real", _field(DefectSimParams, "duration_s"), POSITIVE,
     {"inf": "duration_s * sample_rate_hz must be finite"}),
    ("DefectSimParams.seed", "seed", _field(DefectSimParams, "seed"),
     {**NUMPY_INT, "0": "seeds start at 0"}, {}),
    ("Signal.sample_rate_hz", "real", lambda v: Signal(np.zeros(8), v), POSITIVE,
     {v: "sample_rate_hz must be finite" for v in NON_FINITE}),
    ("generate_white.length", "int", lambda v: generate_white(v, 0), NUMPY_INT, {}),
    ("generate_fgn.length", "int", lambda v: generate_fgn(0.5, v, 0), NUMPY_INT, {}),
    ("fgn_autocovariance.hurst", "real", lambda v: fgn_autocovariance(v, 1), {}, {}),
    ("gen_defect_signal.severity", "real", lambda v: gen_defect_signal(DefectSimParams(), v),
     {**POSITIVE, "0": "a healthy record: noise only"}, {}),
    ("gen_degradation_run.n_specimens", "int",
     lambda v: gen_degradation_run(DefectSimParams(duration_s=0.01), v), NUMPY_INT, {}),
    ("knn_mutual_information.k", "int", lambda v: knn_mutual_information(RECORD.samples, NOISE, v),
     NUMPY_INT, {}),
    ("mix_to_snr.snr_db", "real", lambda v: mix_to_snr(RECORD, 0, v),
     {**ANY_FINITE, "0": "equal powers", "-1": "more noise than record"}, {}),
    ("diagnose.target_hz", "real",
     lambda v: diagnose(RECORD, EnsembleConfig(method="emd"), select="kurtosis", target_hz=v),
     {**POSITIVE, "None": "no target: any peak above the floor decides"}, {}),
    ("detect_defect_peak.target_hz", "real",
     lambda v: detect_defect_peak(envelope_spectrum(RECORD), v), POSITIVE, {}),
]
KIND_PREFIX = {"seed": "seed must be a non-negative integer", "sift": "sift must be a SiftConfig"}
CASES = [(row, value) for row in FIELDS for value in VALUES]


@pytest.mark.parametrize("row,value", CASES, ids=[f"{r[0]}-{v}" for r, v in CASES])
def test_every_config_field_takes_odd_inputs_one_way(row, value):
    # A bool ran as 0 or 1, None and strings raised TypeError or were
    # parsed, sift=None failed deep in the decomposition, and a jitter_frac
    # above 0.5 dropped bursts; now every field is checked by signals'
    # _check_int, _check_real or _check_seed.
    label, kind, make, accepted, expect = row
    field = label.split(".")[1]
    if value in accepted:
        out = make(VALUES[value])
        if field in getattr(out, "__dataclass_fields__", ()):
            assert getattr(out, field) == VALUES[value]
        return
    if value in expect:
        prefix = expect[value]
    elif kind in KIND_PREFIX:
        prefix = KIND_PREFIX[kind]
    elif value in (NOT_INT if kind == "int" else NOT_REAL):
        prefix = f"{field} must be {'an integer' if kind == 'int' else 'a real number'}"
    else:
        prefix = field
    with pytest.raises(ValueError) as err:
        make(VALUES[value])
    assert str(err.value).startswith(prefix), str(err.value)


@pytest.mark.parametrize("field,value,accepted", [
    ("seed", 1.5, False), ("seed", 2.0, False), ("seed", -1, False), ("seed", True, False),
    ("seed", (1, -2), False), ("seed", 0, True), ("seed", np.uint32(7), True),
    ("seed", (1, 2), True), ("seed", [3], True), ("seed", np.random.SeedSequence(5), True),
    ("sample_rate_hz", True, False), ("sample_rate_hz", np.True_, False),
    ("sample_rate_hz", 2, True),
], ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_a_seed_or_rate_of_the_wrong_kind_is_rejected_by_name(field, value, accepted):
    # a fractional seed raised numpy's TypeError, a negative one numpy's
    # "expected non-negative integer", and a bool seed or rate ran as 1;
    # integers, their sequences and a SeedSequence are seeds
    def make():
        if field == "seed":
            return DefectSimParams(seed=value)
        return Signal(np.zeros(8), value)

    if accepted:
        make()
    else:
        with pytest.raises(ValueError, match=f"^{field} must"):
            make()


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
