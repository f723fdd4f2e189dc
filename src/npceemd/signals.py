"""Signal container and the scalar statistics used across the toolkit."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

# Anything numpy's default_rng accepts as entropy; tuples let callers derive
# independent per-trial streams deterministically.
Seed = Union[int, Sequence[int], np.random.SeedSequence]


def _is_integral(value: object) -> bool:
    """An integer of any integer type, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_int(name: str, value: object, low: int, when: str = "") -> None:
    """ValueError naming ``name`` unless value is an integer >= ``low``, not a
    bool; ``when`` ends both messages, as in "max_imfs must be >= 1 when given"."""
    if not _is_integral(value):
        raise ValueError(f"{name} must be an integer{when}, not {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}{when}")


def _check_real(name: str, value: object, rule: str, ok: Callable[[float], bool]) -> None:
    """ValueError naming ``name`` unless value is a real number, not a bool, for
    which ``ok`` holds (else "name must <rule>"); NaN fails every comparison."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    if not ok(value):
        raise ValueError(f"{name} must {rule}")


def _check_seed(name: str, seed: object) -> None:
    """ValueError naming ``name`` unless seed is a SeedSequence, a
    non-negative integer, or a sequence or array of them (bools are not
    integers here)."""
    if isinstance(seed, np.random.SeedSequence):
        return
    values = list(seed) if isinstance(seed, (tuple, list, np.ndarray)) else [seed]
    if not all(_is_integral(v) and v >= 0 for v in values):
        raise ValueError(
            f"{name} must be a non-negative integer, a sequence of them or a "
            f"SeedSequence, got {seed!r}"
        )


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
        _check_real("sample_rate_hz", self.sample_rate_hz, "be finite and positive",
                    lambda v: 0 < v < math.inf)
        rate = float(self.sample_rate_hz)
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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b on the calling thread. np.dot would pass long 1-D
    arrays to a multithreaded BLAS, whose threads stall whenever another
    process holds a CPU, and whose result depends on its thread count."""
    return float(np.einsum("i,i->", a, b))


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


def _power_ratio(snr_db: float) -> float:
    """10**(snr_db/10), inf where that overflows."""
    try:
        return 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        return math.inf


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
    _check_real("snr_db", snr_db, f"be finite, with 10**(snr_db/10) neither 0 nor "
                f"overflowing, got {snr_db}", lambda v: 0.0 < _power_ratio(v) < math.inf)
    ratio = _power_ratio(snr_db)
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
