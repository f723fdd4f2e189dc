"""Sifting engine: extrema detection, spline envelopes, and plain EMD."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .signals import Signal


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
        if self.max_sift_iterations < 1:
            raise ValueError("max_sift_iterations must be >= 1")
        if not self.sd_threshold > 0:
            raise ValueError("sd_threshold must be positive")
        if self.max_imfs is not None and self.max_imfs < 1:
            raise ValueError("max_imfs must be >= 1 when given")


@dataclass(eq=False)
class ImfSet:
    """Ordered intrinsic mode functions (fastest first) plus residue."""

    imfs: list[np.ndarray]
    residue: np.ndarray
    source_length: int
    sample_rate_hz: float

    def __post_init__(self) -> None:
        if self.residue.size != self.source_length:
            raise ValueError("residue length must match the source length")
        for imf in self.imfs:
            if imf.size != self.source_length:
                raise ValueError("every IMF must match the source length")

    @property
    def n_imfs(self) -> int:
        return len(self.imfs)

    def reconstruct(self) -> np.ndarray:
        """Element-wise sum of all IMFs and the residue."""
        total = self.residue.copy()
        for imf in self.imfs:
            total += imf
        return total


def find_extrema(
    samples: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Strict local maxima and minima of a sampled series.

    A plateau of equal values counts once, at its midpoint index (rounded
    down). Returns (max_indices, max_values, min_indices, min_values).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 4:
        raise ValueError("need at least 4 samples")
    changes = np.diff(x) != 0.0
    if changes.all():
        # No plateaus: every interior sample is a candidate.
        vals = x
        mid_idx = np.arange(1, x.size - 1, dtype=np.int64)
    else:
        # Compress runs of equal neighbours so plateaus become single candidates.
        step = np.flatnonzero(changes)
        starts = np.concatenate(([0], step + 1))
        ends = np.concatenate((step, [x.size - 1]))
        vals = x[starts]
        if vals.size < 3:
            empty_i = np.array([], dtype=np.int64)
            empty_v = np.array([], dtype=np.float64)
            return empty_i, empty_v, empty_i.copy(), empty_v.copy()
        mid_idx = (starts[1:-1] + ends[1:-1]) // 2
    left, mid, right = vals[:-2], vals[1:-1], vals[2:]
    is_max = (mid > left) & (mid > right)
    is_min = (mid < left) & (mid < right)
    return mid_idx[is_max], mid[is_max], mid_idx[is_min], mid[is_min]


def _mirror_extend(
    idx: np.ndarray, val: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reflect up to two nearest extrema about each end sample.

    An end whose nearest extremum already sits on the end sample needs no
    extension there: the knot hull reaches the boundary, so the spline
    never extrapolates.
    """
    last = n - 1
    pos_parts, mag_parts = [idx], [val]
    if idx.size and idx[0] > 0:
        pos_parts.insert(0, -idx[:2])
        mag_parts.insert(0, val[:2])
    if idx.size and idx[-1] < last:
        pos_parts.append(2 * last - idx[-2:])
        mag_parts.append(val[-2:])
    # Each reflected pair is ordered by position, then by value.
    for k in (0, -1):
        if pos_parts[k] is not idx:
            order = np.lexsort((mag_parts[k], pos_parts[k]))
            pos_parts[k], mag_parts[k] = pos_parts[k][order], mag_parts[k][order]
    pos = np.concatenate(pos_parts).astype(np.float64)
    mag = np.concatenate(mag_parts)
    if pos.size > 1:
        keep = np.concatenate(([True], np.diff(pos) > 0))
        pos, mag = pos[keep], mag[keep]
    return pos, mag


def spline_envelope(
    indices: np.ndarray, values: np.ndarray, n: int
) -> np.ndarray:
    """Natural cubic spline through mirror-extended extrema at 0..n-1.

    Raises TooFewExtrema when fewer than two knots remain even after the
    mirror extension, which signals a monotone residue.
    """
    idx = np.asarray(indices, dtype=np.int64)
    val = np.asarray(values, dtype=np.float64)
    pos, mag = _mirror_extend(idx, val, n)
    if pos.size < 2:
        raise TooFewExtrema(f"{pos.size} envelope knots after extension")
    spline = CubicSpline(pos, mag, bc_type="natural")
    return spline(np.arange(n, dtype=np.float64))


def sift_once(h: np.ndarray) -> np.ndarray:
    """One sifting pass: subtract the mean of the two spline envelopes."""
    x = np.asarray(h, dtype=np.float64)
    max_i, max_v, min_i, min_v = find_extrema(x)
    if max_i.size == 0 or min_i.size == 0:
        raise TooFewExtrema(f"{max_i.size} maxima / {min_i.size} minima")
    upper = spline_envelope(max_i, max_v, x.size)
    lower = spline_envelope(min_i, min_v, x.size)
    return x - 0.5 * (upper + lower)


def _sum_squares(v: np.ndarray) -> float:
    """Sum of squares on the calling thread. np.dot would pass long 1-D
    arrays to a multithreaded BLAS, whose threads stall whenever another
    process holds a CPU, and whose result depends on its thread count."""
    return float(np.einsum("i,i->", v, v))


def emd(s: Signal, cfg: SiftConfig | None = None) -> ImfSet:
    """Decompose a signal into IMFs plus a residue by iterated sifting.

    Modes are extracted until the residue is monotone-like (fewer than
    three extrema) or the mode cap is reached. The element-wise sum of all
    IMFs plus the residue reconstructs the input to float round-off, since
    every mode is subtracted from the running residue in place.
    Deterministic: identical inputs give bit-identical outputs.
    """
    cfg = cfg or SiftConfig()
    x = s.samples
    limit = cfg.max_imfs
    if limit is None:
        limit = max(1, int(math.floor(math.log2(x.size))))
    # Below this the residue is float round-off, not structure; without the
    # guard a fully-extracted signal keeps yielding junk micro-IMFs.
    negligible = 1e-12 * float(np.max(np.abs(x)))
    imfs: list[np.ndarray] = []
    residue = x.copy()
    while len(imfs) < limit:
        peak = float(np.max(np.abs(residue)))
        if peak <= negligible:
            break
        max_i, _, min_i, _ = find_extrema(residue)
        if max_i.size < 1 or min_i.size < 1 or max_i.size + min_i.size < 3:
            break
        # The Cauchy sums are taken on values scaled by 2**-e, so they cannot
        # overflow at extreme amplitudes. A power-of-two scale is exact, so
        # the ratio keeps its bits wherever the unscaled sums stayed finite.
        e = math.frexp(peak)[1]
        h = residue
        for _ in range(cfg.max_sift_iterations):
            try:
                h_new = sift_once(h)
            except TooFewExtrema:
                break
            scaled = np.ldexp(h, -e)
            diff = np.ldexp(h - h_new, -e)
            denom = _sum_squares(scaled)
            h = h_new
            if denom == 0.0:
                break
            if _sum_squares(diff) / denom < cfg.sd_threshold:
                break
        imfs.append(h)
        residue = residue - h
    return ImfSet(
        imfs=imfs,
        residue=residue,
        source_length=x.size,
        sample_rate_hz=s.sample_rate_hz,
    )


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
