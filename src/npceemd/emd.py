"""Sifting engine: extrema detection, spline envelopes, and plain EMD."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .signals import Signal, _check_int, _check_real, _dot, _from_unit_peak, _to_unit_peak

# LAPACK's tridiagonal solver, the routine solve_banded runs for (1, 1) bands.
(_GTSV,) = get_lapack_funcs(("gtsv",), dtype=np.float64)


# (max_indices, max_values, min_indices, min_values), as find_extrema gives.
Extrema = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class TooFewExtrema(ValueError):
    """Not enough extrema to build an envelope; the series is monotone-like."""


@dataclass(frozen=True)
class SiftConfig:
    """Stopping rules for the sifting loop.

    Each sift iteration stops once the Cauchy criterion
    sum((h_prev - h_new)**2) / sum(h_prev**2) drops below ``sd_threshold``,
    with ``max_sift_iterations`` as a hard cap. ``max_imfs=None`` bounds the
    decomposition at floor(log2(N)) modes.
    """

    max_sift_iterations: int = 50
    sd_threshold: float = 0.2
    max_imfs: int | None = None

    def __post_init__(self) -> None:
        _check_int("max_sift_iterations", self.max_sift_iterations, 1)
        _check_real("sd_threshold", self.sd_threshold, "be positive", lambda v: v > 0)
        if self.max_imfs is not None:
            _check_int("max_imfs", self.max_imfs, 1, " when given")

    def mode_cap(self, n: int) -> int:
        """Most modes taken from n samples: max_imfs, else floor(log2(n))."""
        return self.max_imfs or max(1, math.floor(math.log2(n)))


@dataclass(eq=False)
class ImfSet:
    """Ordered intrinsic mode functions (fastest first) plus residue."""

    imfs: list[np.ndarray]
    residue: np.ndarray

    def __post_init__(self) -> None:
        for imf in self.imfs:
            if imf.size != self.residue.size:
                raise ValueError("every IMF must match the residue length")

    @property
    def source_length(self) -> int:
        return self.residue.size

    @property
    def n_imfs(self) -> int:
        return len(self.imfs)

    def reconstruct(self) -> np.ndarray:
        """Element-wise sum of all IMFs and the residue."""
        total = self.residue.copy()
        for imf in self.imfs:
            total += imf
        return total


def find_extrema(samples: np.ndarray) -> Extrema:
    """Strict local maxima and minima of a sampled series.

    A sample is a maximum when the last nonzero step into it rises and the
    first nonzero step out of it falls (a minimum: the reverse). A plateau
    of equal values counts once, at its midpoint index (rounded down), and
    a plateau touching either end never counts. Returns (max_indices,
    max_values, min_indices, min_values); the indices are those SciPy's
    ``find_peaks`` gives for x and -x. Raises ValueError on fewer than 4
    samples or on a NaN or infinite one.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 4:
        raise ValueError("need at least 4 samples")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    # Compared, not subtracted, so steps between finite samples near the
    # largest float cannot overflow.
    rise = x[1:] > x[:-1]
    fall = x[1:] < x[:-1]
    step = rise | fall
    # Sifting residues almost never repeat a neighbour, and without a flat
    # step every sample is its own candidate: this branch gives what the
    # general one would, in half the time per call.
    if step.all():
        max_i = np.flatnonzero(rise[:-1] & fall[1:]) + 1
        min_i = np.flatnonzero(fall[:-1] & rise[1:]) + 1
    else:
        # Each run of equal samples between two nonzero steps is one
        # candidate, placed at the run's midpoint.
        nz = np.flatnonzero(step)
        mid = (nz[:-1] + 1 + nz[1:]) // 2
        up = rise[nz]
        max_i = mid[up[:-1] & ~up[1:]]
        min_i = mid[~up[:-1] & up[1:]]
    return max_i, x[max_i], min_i, x[min_i]


def _mirror_extend(
    idx: np.ndarray, val: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reflect up to two nearest extrema about each end sample.

    An end whose nearest extremum already sits on the end sample needs no
    extension there: the knot hull reaches the boundary, so the spline
    never extrapolates.
    """
    last = n - 1
    left = slice(1, None, -1) if idx.size and idx[0] > 0 else slice(0)
    right = slice(None, -3, -1) if idx.size and idx[-1] < last else slice(0)
    pos = np.concatenate((-idx[left], idx, 2 * last - idx[right]))
    return pos.astype(np.float64), np.concatenate((val[left], val, val[right]))


def spline_envelope(
    indices: np.ndarray, values: np.ndarray, n: int
) -> np.ndarray:
    """Natural cubic spline through mirror-extended extrema at 0..n-1.

    ``indices`` must be strictly ascending and ``values`` finite, one per
    index (ValueError). Raises TooFewExtrema when fewer than two knots
    remain even after the mirror extension, which signals a monotone
    residue.

    The spline is scipy's ``CubicSpline(pos, mag, bc_type="natural")``
    without its per-call validation and object construction: the same
    tridiagonal system for the knot slopes, row for row, solved by the same
    LAPACK ``gtsv`` that ``solve_banded`` calls, the same Hermite
    coefficients, and an evaluation that sums the power terms in the order
    scipy's ``PPoly`` does, so the envelope is bit-identical to it.
    """
    idx = np.asarray(indices, dtype=np.int64)
    val = np.asarray(values, dtype=np.float64)
    if idx.ndim != 1 or idx.shape != val.shape:
        raise ValueError("envelope indices and values must be 1-D and of equal length")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("envelope indices must be strictly ascending")
    pos, mag = _mirror_extend(idx, val, n)
    if pos.size < 2:
        raise TooFewExtrema(f"{pos.size} envelope knots after extension")
    if not np.all(np.isfinite(mag)):
        raise ValueError("envelope values must be finite")
    # Knot slopes s from the tridiagonal system: lower diagonal dl, diagonal
    # d, upper diagonal du. The end rows are the natural condition y'' = 0,
    # written as scipy writes a second-derivative condition of value 0.0.
    dx = np.diff(pos)
    slope = np.diff(mag) / dx
    d = 2 * np.concatenate((dx[:1], dx[:-1] + dx[1:], dx[-1:]))
    du = np.concatenate((dx[:1], dx[:-1]))
    dl = np.concatenate((dx[1:], dx[-1:]))
    b = np.empty(pos.size)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (mag[1] - mag[0])
    b[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (mag[-1] - mag[-2])
    *_, s, info = _GTSV(dl, d, du, b, True, True, True, True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    # Cubic Hermite coefficients per knot interval, highest power first.
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], mag[:-1]))
    # Every knot is an integer (an index or its mirror image), so interval i
    # holds exactly the samples in [pos[i], pos[i+1]), clipped to 0..n-1; the
    # last one also holds sample n-1 when that is itself the last knot.
    bounds = np.clip(pos, 0, n).astype(np.int64)
    bounds[-1] = n
    counts = np.diff(bounds)
    # Each sample's offset from its interval's knot.
    off = np.arange(n, dtype=np.float64)
    off -= np.repeat(pos[:-1], counts)
    # The power terms summed from 0.0 in the order of scipy's evaluate_poly1,
    # so a -0.0 constant term comes out +0.0 as it does there. One
    # coefficient row is spread out at a time, to keep few n-vectors alive.
    env = np.repeat(c[3], counts)
    env += 0.0
    env += np.repeat(c[2], counts) * off
    power = off * off
    env += np.repeat(c[1], counts) * power
    power *= off
    env += np.repeat(c[0], counts) * power
    return env


def sift_once(h: np.ndarray, *, extrema: Extrema | None = None) -> np.ndarray:
    """One sifting pass: subtract the mean of the two spline envelopes.

    ``extrema`` is ``find_extrema(h)`` when the caller has already taken it.
    """
    x = np.asarray(h, dtype=np.float64)
    max_i, max_v, min_i, min_v = find_extrema(x) if extrema is None else extrema
    if max_i.size == 0 or min_i.size == 0:
        raise TooFewExtrema(f"{max_i.size} maxima / {min_i.size} minima")
    upper = spline_envelope(max_i, max_v, x.size)
    lower = spline_envelope(min_i, min_v, x.size)
    return x - 0.5 * (upper + lower)


def mode_extrema(residue: np.ndarray) -> Extrema | None:
    """``find_extrema(residue)`` if another mode can be sifted out, else None.

    A mode needs a maximum, a minimum and three extrema; below that the
    residue is a monotone-like trend.
    """
    extrema = find_extrema(residue)
    max_i, _, min_i, _ = extrema
    if max_i.size >= 1 and min_i.size >= 1 and max_i.size + min_i.size >= 3:
        return extrema
    return None


def sift_mode(residue: np.ndarray, extrema: Extrema, cfg: SiftConfig) -> np.ndarray:
    """Sift one mode out of ``residue``, whose ``mode_extrema`` scan is
    ``extrema``, until the Cauchy SD drops below the threshold or the
    iteration cap is reached; returns the mode. Callers pass unit-scale
    residues, so the Cauchy sums of squares cannot overflow."""
    h = residue
    for _ in range(cfg.max_sift_iterations):
        try:
            h_new = sift_once(h, extrema=extrema)
        except TooFewExtrema:
            break
        # The residue's scan serves the first pass only.
        extrema = None
        diff = h - h_new
        denom = _dot(h, h)
        h = h_new
        if denom == 0.0:
            break
        if _dot(diff, diff) / denom < cfg.sd_threshold:
            break
    return h


def negligible_level(residue: np.ndarray) -> float:
    """1e-12 of the starting residue's peak: below it a residue is float
    round-off, not structure, which would otherwise keep yielding junk
    micro-IMFs."""
    return 1e-12 * float(np.max(np.abs(residue)))


def next_mode_extrema(residue: np.ndarray, negligible: float) -> Extrema | None:
    """``mode_extrema(residue)``, or None when the residue's peak is at or
    below ``negligible`` (its ``negligible_level``): the stop, short of the
    mode cap, of every EMD that takes modes off a residue."""
    return None if np.max(np.abs(residue)) <= negligible else mode_extrema(residue)


def take_modes(residue: np.ndarray, limit: int, step: Callable) -> ImfSet:
    """Modes taken off ``residue`` by ``step(residue, extrema, k)``, which
    gives mode k (0-based) of a residue whose ``mode_extrema`` scan is
    ``extrema``, plus the final residue. Stops at the mode cap ``limit``
    or when ``next_mode_extrema`` finds no mode."""
    negligible = negligible_level(residue)
    imfs: list[np.ndarray] = []
    while len(imfs) < limit:
        extrema = next_mode_extrema(residue, negligible)
        if extrema is None:
            break
        imfs.append(step(residue, extrema, len(imfs)))
        residue = residue - imfs[-1]
    return ImfSet(imfs, residue)


def emd(s: Signal, cfg: SiftConfig | None = None) -> ImfSet:
    """Decompose a signal into IMFs plus a residue by iterated sifting.

    Modes are sifted out until a ``take_modes`` stop. The element-wise sum
    of all IMFs plus the residue reconstructs the input to float round-off,
    since every mode is subtracted from the running residue.
    Deterministic: identical inputs give bit-identical outputs. Sifts at a
    unit peak and scales the modes back (``signals._to_unit_peak``); a mode
    that then outgrows the largest float raises ValueError.
    """
    cfg = cfg or SiftConfig()
    x, e = _to_unit_peak(s.samples)
    imf_set = take_modes(x, cfg.mode_cap(x.size), lambda r, ext, _: sift_mode(r, ext, cfg))
    _from_unit_peak(e, *imf_set.imfs, imf_set.residue)
    return imf_set


def zero_crossings(x: np.ndarray) -> int:
    """Number of sign changes, ignoring exact zeros."""
    signs = np.sign(np.asarray(x, dtype=np.float64))
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(np.diff(signs)))


def imf_criterion_gap(x: np.ndarray) -> int:
    """|#extrema - #zero crossings|; at most 1 for a well-formed IMF."""
    max_i, _, min_i, _ = find_extrema(x)
    return abs(int(max_i.size + min_i.size) - zero_crossings(x))
