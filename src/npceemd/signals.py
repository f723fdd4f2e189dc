"""Signal container and the scalar statistics used across the toolkit."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# Anything numpy's default_rng accepts as entropy; tuples let callers derive
# independent per-trial streams deterministically.
Seed = Union[int, Sequence[int], np.random.SeedSequence]


def _is_integral(value: object) -> bool:
    """An integer of any integer type, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ZeroVariance(ValueError):
    """All samples equal; kurtosis is undefined."""


@dataclass(frozen=True, eq=False)
class Signal:
    """Uniformly sampled real-valued time series.

    Samples are coerced to a float64 array and must be finite, at least
    four long, with a finite, strictly positive sample rate.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if samples.size < 4:
            raise ValueError(f"need at least 4 samples, got {samples.size}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")
        rate = float(self.sample_rate_hz)
        if not (rate > 0 and math.isfinite(rate)):
            raise ValueError("sample_rate_hz must be finite and positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        """Sample instants starting at t = 0."""
        return np.arange(self.samples.size) / self.sample_rate_hz


def _as_array(s: "Signal | np.ndarray | Sequence[float]") -> np.ndarray:
    if isinstance(s, Signal):
        return s.samples
    return np.asarray(s, dtype=np.float64)


def _to_unit_peak(x: np.ndarray) -> tuple[np.ndarray, int]:
    """x scaled by 2**-e to a peak in [0.5, 1), and e (0 for all-zero x).
    A power-of-two scale is exact, so arithmetic on the copy, scaled back
    by ``_from_unit_peak``, keeps its bits wherever the unscaled arithmetic
    stayed finite and normal, and does not overflow where that did."""
    e = math.frexp(float(np.max(np.abs(x))))[1]
    return np.ldexp(x, -e), e


def _from_unit_peak(e: int, *arrays: np.ndarray) -> None:
    """Scale each array by 2**e in place; ValueError if one outgrows the largest float."""
    with np.errstate(over="ignore"):
        for v in arrays:
            if not np.all(np.isfinite(np.ldexp(v, e, out=v))):
                raise ValueError(f"scaled by 2**{e}, a value outgrows the largest float")


def rms(s: "Signal | np.ndarray") -> float:
    """Root mean square of the samples, squared at a unit peak."""
    x, e = _to_unit_peak(_as_array(s))
    return math.ldexp(float(np.sqrt(np.mean(x * x))), e)


def kurtosis(s: "Signal | np.ndarray") -> float:
    """Fourth central moment over squared variance (population, non-excess).

    Gaussian data scores about 3, impulsive data far more. Raises
    ZeroVariance for constant input, which must never win a
    kurtosis-based selection. The moments are taken at a unit peak, so the
    ratio is the same at any power-of-two scale.
    """
    x = _as_array(s)
    if x.size == 0 or np.all(x == x[0]):
        raise ZeroVariance("all samples equal")
    x = _to_unit_peak(x)[0]
    centered = x - np.mean(x)
    m2 = float(np.mean(centered * centered))
    if m2 == 0.0:
        raise ZeroVariance("zero sample variance")
    m4 = float(np.mean(centered**4))
    return m4 / (m2 * m2)


def mix_to_snr(clean: Signal, noise_seed: Seed, snr_db: float) -> Signal:
    """Add white Gaussian noise rescaled so the realized SNR is exact.

    The drawn noise is rescaled so that 10*log10(P_clean / P_noise)
    equals ``snr_db`` on the realization itself, not just in expectation.
    Deterministic for a fixed seed. The mix is made at a unit peak and
    scaled back, so ``mix_to_snr`` commutes with a power-of-two scale of
    the clean record bit for bit; a mix that outgrows the largest float
    raises ValueError. So does an ``snr_db`` that is not finite, or whose
    power ratio 10**(snr_db/10) underflows to 0 or overflows.
    """
    snr_db = float(snr_db)
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"snr_db must be finite, with 10**(snr_db/10) neither 0 nor "
            f"overflowing, got {snr_db}"
        )
    x, e = _to_unit_peak(clean.samples)
    p_clean = float(np.mean(x * x))
    if p_clean == 0.0:
        raise ValueError("clean signal has zero power")
    rng = np.random.default_rng(noise_seed)
    w = rng.standard_normal(x.size)
    p_target = p_clean / ratio
    w *= np.sqrt(p_target / np.mean(w * w))
    w += x
    _from_unit_peak(e, w)
    return Signal(w, clean.sample_rate_hz)
