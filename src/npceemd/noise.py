"""White and fractional Gaussian noise with verifiable autocovariance."""

from __future__ import annotations

import warnings

import numpy as np

from .signals import Seed

# Circulant embedding allocates complex arrays of twice the requested
# length; this cap keeps a single generation under ~0.5 GB.
MAX_FGN_LENGTH = 1 << 23


def fgn_autocovariance(hurst: float, lag: int | np.ndarray) -> float | np.ndarray:
    """Closed-form autocovariance of unit-variance fGn at an integer lag or
    array of lags.

    (|k-1|^(2H) - 2|k|^(2H) + |k+1|^(2H)) / 2, a float for a scalar lag;
    equals 1 at lag 0 and vanishes for positive lags when H = 0.5.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie strictly inside (0, 1)")
    k = np.abs(np.asarray(lag, dtype=np.float64))
    h2 = 2.0 * hurst
    gamma = 0.5 * (np.abs(k - 1.0) ** h2 - 2.0 * k**h2 + (k + 1.0) ** h2)
    return float(gamma) if gamma.ndim == 0 else gamma


def generate_white(length: int, seed: Seed) -> np.ndarray:
    """I.i.d. standard normal samples, deterministic for a fixed seed."""
    if length < 1:
        raise ValueError("length must be positive")
    return np.random.default_rng(seed).standard_normal(length)


def generate_fgn(hurst: float, length: int, seed: Seed) -> np.ndarray:
    """Unit-variance fractional Gaussian noise via circulant embedding of the
    covariance.

    The first row of the 2N-circulant holds the target autocovariance, so
    the synthesized sequence has exactly that covariance (not an
    approximation).

    Spectral eigenvalues that go slightly negative from float round-off
    are clamped to zero; a warning is emitted if the clamped magnitude is
    more than 1e-8 of the largest eigenvalue.
    """
    n = length
    if n < 1:
        raise ValueError("length must be positive")
    if n > MAX_FGN_LENGTH:
        raise ValueError(f"length {n} exceeds cap {MAX_FGN_LENGTH}")
    m = 2 * n
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    row = np.concatenate((gamma, gamma[-2:0:-1]))
    lam = np.fft.fft(row).real
    negative = lam < 0.0
    if np.any(negative):
        worst = float(-lam[negative].min())
        if worst > 1e-8 * float(lam.max()):
            warnings.warn(
                f"clamped embedding eigenvalue of magnitude {worst:.3e}",
                RuntimeWarning,
            )
        lam = np.where(negative, 0.0, lam)
    rng = np.random.default_rng(seed)
    z = np.empty(m, dtype=np.complex128)
    z[0] = rng.standard_normal()
    z[n] = rng.standard_normal()
    if n > 1:
        ab = rng.standard_normal((n - 1, 2))
        z[1:n] = (ab[:, 0] + 1j * ab[:, 1]) / np.sqrt(2.0)
        z[n + 1 :] = np.conj(z[1:n][::-1])
    return np.sqrt(m) * np.fft.ifft(np.sqrt(lam) * z).real[:n]
