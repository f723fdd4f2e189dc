import numpy as np
import pytest

from npceemd import fgn_autocovariance, generate_fgn, generate_white
from npceemd.noise import MAX_FGN_LENGTH


def empirical_autocov(x: np.ndarray, lag: int) -> float:
    if lag == 0:
        return float(np.mean(x * x))
    return float(np.mean(x[:-lag] * x[lag:]))


def test_autocovariance_lag_zero_is_variance():
    for hurst in (0.1, 0.37, 0.5, 0.9):
        assert fgn_autocovariance(hurst, 0) == pytest.approx(1.0, abs=1e-15)


def test_autocovariance_white_case_vanishes():
    assert fgn_autocovariance(0.5, 1) == 0.0
    assert fgn_autocovariance(0.5, 7) == 0.0


def test_autocovariance_persistent_lag_one():
    expected = 0.5 * (2.0**1.8 - 2.0)  # = 0.7411011265922482
    assert fgn_autocovariance(0.9, 1) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.7411, abs=1e-4)


def test_autocovariance_antipersistent_is_negative():
    assert fgn_autocovariance(0.1, 1) < 0.0


def test_autocovariance_takes_an_array_of_lags():
    # generate_fgn builds its circulant row from the array form. numpy may
    # take array powers from SIMD routines an ulp away from the scalar ones,
    # and the second difference cancels, so the bound is a few ulps of its
    # largest term (k+1)^(2H); lags are symmetric about 0.
    lags = np.arange(-3, 50)
    for hurst in (0.1, 0.5, 0.9):
        row = fgn_autocovariance(hurst, lags)
        assert row.shape == lags.shape
        scalars = [fgn_autocovariance(hurst, int(k)) for k in lags]
        assert all(type(v) is float for v in scalars)
        ulps = 4 * np.finfo(np.float64).eps * (np.abs(lags) + 1.0) ** (2 * hurst)
        assert np.all(np.abs(row - scalars) <= ulps)
        assert scalars[2] == scalars[4]  # lags -1 and 1


def test_white_variance_and_whiteness():
    draws = generate_white(1_000_000, 77)
    assert np.var(draws) == pytest.approx(1.0, abs=0.01)
    lag1 = np.mean(draws[:-1] * draws[1:]) / np.var(draws)
    assert abs(lag1) < 0.004


def test_white_deterministic():
    assert np.array_equal(generate_white(512, 5), generate_white(512, 5))


def test_fgn_white_case_lag_one():
    g = generate_fgn(0.5, 100_000, 2)
    lag1 = np.mean(g[:-1] * g[1:]) / np.var(g)
    assert abs(lag1) < 0.013  # ~4/sqrt(N)


def test_fgn_antipersistent_sign():
    acc = 0.0
    for r in range(20):
        g = generate_fgn(0.1, 8192, (3, r))
        acc += empirical_autocov(g, 1)
    assert acc / 20 < 0.0


@pytest.mark.parametrize("hurst", [round(0.1 * i, 1) for i in range(1, 10)])
def test_fgn_matches_closed_form_autocovariance(hurst):
    # 200 realizations x 4096 samples; mean empirical autocovariance at
    # lags 0..5 must sit within 3 standard errors of the closed form.
    reps = 200
    values = np.zeros((reps, 6))
    for r in range(reps):
        g = generate_fgn(hurst, 4096, (17, r))
        for lag in range(6):
            values[r, lag] = empirical_autocov(g, lag)
    mean = values.mean(axis=0)
    stderr = values.std(axis=0, ddof=1) / np.sqrt(reps)
    for lag in range(6):
        theory = fgn_autocovariance(hurst, lag)
        assert abs(mean[lag] - theory) <= 3.0 * stderr[lag], (
            f"H={hurst} lag={lag}: {mean[lag]} vs {theory} (se {stderr[lag]})"
        )


def test_fgn_mean_is_centred():
    g = generate_fgn(0.7, 100_000, 8)
    # loose bound: long-range dependence inflates the variance of the mean
    assert abs(g.mean()) < 0.1


def test_fgn_deterministic():
    a = generate_fgn(0.3, 1024, 9)
    b = generate_fgn(0.3, 1024, 9)
    assert np.array_equal(a, b)


def test_fgn_length_cap():
    with pytest.raises(ValueError, match="exceeds cap"):
        generate_fgn(0.5, MAX_FGN_LENGTH + 1, 1)


def test_fgn_params_validation():
    with pytest.raises(ValueError):
        generate_fgn(0.0, 16, 0)
    with pytest.raises(ValueError):
        generate_fgn(0.5, 0, 0)
