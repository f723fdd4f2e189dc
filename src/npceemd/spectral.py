"""Analytic-signal envelopes, envelope spectra, and defect-peak detection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft

from .signals import Signal, _as_array, _from_unit_peak, _to_unit_peak


# Shortest record whose analytic envelope is taken; a diagnosis needs one.
MIN_ENVELOPE_SAMPLES = 8

# A peak counts when it exceeds this multiple of the spectral floor; each of
# the first N_HARMONICS multiples of the target is matched when it exceeds
# HARMONIC_RATIO_THRESHOLD times its own floor.
PEAK_RATIO_THRESHOLD = 5.0
HARMONIC_RATIO_THRESHOLD = 3.0
N_HARMONICS = 3


@dataclass(frozen=True, eq=False)
class EnvelopeSpectrum:
    """Single-sided magnitude spectrum of a demodulated envelope."""

    frequencies_hz: np.ndarray
    amplitudes: np.ndarray
    resolution_hz: float

    def __post_init__(self) -> None:
        if self.frequencies_hz.size != self.amplitudes.size:
            raise ValueError("frequency and amplitude lengths differ")
        if np.any(np.diff(self.frequencies_hz) <= 0):
            raise ValueError("frequencies must be strictly ascending")
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("amplitudes must be finite")

    @property
    def nyquist_hz(self) -> float:
        return float(self.frequencies_hz[-1])


@dataclass(frozen=True)
class PeakDetection:
    """Outcome of a defect-frequency peak test."""

    found: bool
    peak_ratio: float
    matched_bins: tuple[int, ...]


def analytic_envelope(s: "Signal | np.ndarray") -> np.ndarray:
    """Modulus of the one-sided analytic signal.

    Negative frequencies are zeroed and positive ones doubled (DC and
    Nyquist kept), so a pure tone of amplitude A yields an envelope of A
    away from the ends. Bit for bit the modulus of SciPy's ``hilbert(x)``.
    """
    x = _as_array(s)
    if x.size < MIN_ENVELOPE_SAMPLES:
        raise ValueError(f"need at least {MIN_ENVELOPE_SAMPLES} samples")
    # Transformed at a peak in [0.5, 1), so a record near the largest
    # float does not overflow the FFT sums.
    unit, e = _to_unit_peak(x)
    n = unit.size
    spectrum = fft(unit)
    spectrum[1 : (n + 1) // 2] *= 2
    spectrum[n // 2 + 1 :] = 0
    env = np.abs(ifft(spectrum))
    _from_unit_peak(e, env)
    return env


def envelope_spectrum(s: Signal) -> EnvelopeSpectrum:
    """Magnitude spectrum (2/N single-sided) of the mean-removed envelope.

    The DC bin is forced to zero so it cannot dominate peak ratios. The
    envelope of the unit-peak record is transformed and only the amplitudes
    are scaled back, so an envelope above the record's peak cannot overflow.
    """
    unit, e = _to_unit_peak(s.samples)
    env = analytic_envelope(unit)
    env = env - env.mean()
    n = env.size
    amplitudes = np.abs(np.fft.rfft(env)) * (2.0 / n)
    amplitudes[0] = 0.0
    _from_unit_peak(e, amplitudes)
    frequencies = np.fft.rfftfreq(n, d=1.0 / s.sample_rate_hz)
    return EnvelopeSpectrum(frequencies, amplitudes, s.sample_rate_hz / n)


def _window_peak(spec: EnvelopeSpectrum, f_hz: float) -> tuple[int, float]:
    """Largest amplitude within one bin of a frequency; returns (bin, value)."""
    b = int(round(f_hz / spec.resolution_hz))
    lo = max(b - 1, 0)
    hi = min(b + 1, spec.amplitudes.size - 1)
    window = spec.amplitudes[lo : hi + 1]
    j = lo + int(np.argmax(window))
    return j, float(spec.amplitudes[j])


def _local_floor(spec: EnvelopeSpectrum, center: int, half_width: int) -> float:
    """Median amplitude near a bin, excluding the +-1 peak window and DC.

    A local floor keeps the ratio test meaningful for narrowband signals,
    whose spectra are empty over most of the band; a global median there
    collapses to numeric dust and fires on anything.
    """
    lo = max(1, center - half_width)
    hi = min(spec.amplitudes.size - 1, center + half_width)
    spread = np.concatenate(
        (
            spec.amplitudes[lo : max(lo, center - 1)],
            spec.amplitudes[min(hi + 1, center + 2) : hi + 1],
        )
    )
    if spread.size < 8:
        spread = spec.amplitudes[1:]
    return float(np.median(spread))


def detect_defect_peak(spec: EnvelopeSpectrum, target_hz: float) -> PeakDetection:
    """Test for a defect peak at the target frequency and its harmonics.

    ``found`` is true when the largest amplitude within one bin of the
    target exceeds ``PEAK_RATIO_THRESHOLD`` times the local median floor
    around the target. ``matched_bins`` lists the spectrum bin of each of
    the first ``N_HARMONICS`` multiples of the target that clears
    ``HARMONIC_RATIO_THRESHOLD`` times its own local floor.
    """
    if not target_hz > 0:
        raise ValueError("target_hz must be positive")
    if target_hz >= spec.nyquist_hz:
        raise ValueError(f"target {target_hz} Hz >= Nyquist {spec.nyquist_hz} Hz")
    target_bin = int(round(target_hz / spec.resolution_hz))
    half_width = max(20, int(round(0.75 * target_bin)))

    def examine(f_hz: float) -> tuple[int, float]:
        bin_f, amp_f = _window_peak(spec, f_hz)
        floor = _local_floor(spec, int(round(f_hz / spec.resolution_hz)), half_width)
        if floor > 0.0:
            return bin_f, amp_f / floor
        return bin_f, math.inf if amp_f > 0.0 else 0.0

    _, peak_ratio = examine(target_hz)
    matched: list[int] = []
    for multiple in range(1, N_HARMONICS + 1):
        f_h = multiple * target_hz
        if f_h >= spec.nyquist_hz:
            break
        bin_h, ratio_h = examine(f_h)
        if ratio_h > HARMONIC_RATIO_THRESHOLD:
            matched.append(bin_h)
    return PeakDetection(
        found=peak_ratio > PEAK_RATIO_THRESHOLD,
        peak_ratio=peak_ratio,
        matched_bins=tuple(matched),
    )
