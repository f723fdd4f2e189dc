"""Reference computations the benchmark checks the program's outputs against.

They are written here from numpy and scipy directly, without calling the
package, so a fault in the package cannot hide in its own check.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import hilbert
from scipy.special import digamma


def ksg_mutual_information(x: np.ndarray, y: np.ndarray, k: int = 3) -> float:
    """Kraskov-Stoegbauer-Grassberger estimate (their first algorithm), in nats.

    Brute force: the k-th neighbour distance under the max-coordinate
    metric, then marginal counts of points strictly closer than it. Needs
    series without repeated values, since it applies no tie jitter.
    """
    n = x.size
    if np.unique(x).size != n or np.unique(y).size != n:
        raise ValueError("oracle needs series without repeated values")
    eps = np.empty(n)
    nx = np.empty(n)
    ny = np.empty(n)
    for lo in range(0, n, 500):
        hi = min(n, lo + 500)
        dx = np.abs(x[lo:hi, None] - x[None, :])
        dy = np.abs(y[lo:hi, None] - y[None, :])
        # Column k of the sorted joint distances skips the point itself (0).
        e = np.partition(np.maximum(dx, dy), k, axis=1)[:, k]
        eps[lo:hi] = e
        nx[lo:hi] = np.count_nonzero(dx < e[:, None], axis=1) - 1
        ny[lo:hi] = np.count_nonzero(dy < e[:, None], axis=1) - 1
    return float(digamma(n) + digamma(k) - np.mean(digamma(nx + 1) + digamma(ny + 1)))


def fft_envelope(x: np.ndarray) -> np.ndarray:
    """Analytic-signal modulus through numpy's FFT."""
    n = x.size
    gain = np.zeros(n)
    gain[0] = 1.0
    if n % 2 == 0:
        gain[n // 2] = 1.0
        gain[1 : n // 2] = 2.0
    else:
        gain[1 : (n + 1) // 2] = 2.0
    return np.abs(np.fft.ifft(np.fft.fft(x) * gain))


def envelope_spectrum(x: np.ndarray) -> np.ndarray:
    """2/N single-sided magnitude spectrum of the mean-removed envelope, DC 0."""
    env = fft_envelope(x)
    env = env - env.mean()
    amplitudes = np.abs(np.fft.rfft(env)) * (2.0 / x.size)
    amplitudes[0] = 0.0
    return amplitudes


def best_correlation(imfs: list[np.ndarray], target: np.ndarray, impulsive: bool) -> tuple[int, float]:
    """1-based index and Pearson r of the IMF most correlated with a target;
    impulsive targets are compared through scipy.signal.hilbert envelopes."""
    if impulsive:
        target = np.abs(hilbert(target))
    best = (0, 0.0)
    for i, imf in enumerate(imfs, start=1):
        candidate = np.abs(hilbert(imf)) if impulsive else imf
        r = float(np.corrcoef(candidate, target)[0, 1])
        if best[0] == 0 or abs(r) > abs(best[1]):
            best = (i, r)
    return best
