"""Benchmark signal generators: tone, gated impulse train, and a
run-to-failure bearing-style vibration simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .noise import MAX_FGN_LENGTH
from .signals import Seed, Signal, _check_int, _check_real, _check_seed, mix_to_snr

# The tone/impulse fixtures use one second at this rate.
FIXTURE_SAMPLE_RATE_HZ = 32768.0
FIXTURE_LENGTH = 32768

TONE_FREQ_HZ = 20.0
TONE_AMPLITUDE = 10.0
IMPULSE_CARRIER_HZ = 1400.0
IMPULSE_AMPLITUDE = 100.0
IMPULSE_DECAY = 900.0
IMPULSE_PERIOD_S = 1.0 / 20.0
# The SNR of the noisy combined fixture when no other is given.
NOISY_SNR_DB = -30.0


def _fixture_times() -> np.ndarray:
    # Sample instants k/fs for k = 1..N, matching the fixture definition.
    return np.arange(1, FIXTURE_LENGTH + 1, dtype=np.float64) / FIXTURE_SAMPLE_RATE_HZ


def gen_tone() -> Signal:
    """Amplitude-10 sine at 20 Hz over one second at 32768 Hz."""
    t = _fixture_times()
    return Signal(
        TONE_AMPLITUDE * np.sin(2.0 * math.pi * TONE_FREQ_HZ * t),
        FIXTURE_SAMPLE_RATE_HZ,
    )


def gen_impulses() -> Signal:
    """1400 Hz carrier gated by a 20 Hz-periodic exponential decay."""
    t = _fixture_times()
    t2 = np.mod(t, IMPULSE_PERIOD_S)
    samples = (
        IMPULSE_AMPLITUDE
        * np.sin(2.0 * math.pi * IMPULSE_CARRIER_HZ * t)
        * np.exp(-IMPULSE_DECAY * t2)
    )
    return Signal(samples, FIXTURE_SAMPLE_RATE_HZ)


def gen_combined(snr_db: float | None = None, seed: Seed | None = None) -> Signal:
    """Tone plus impulse train; optionally buried in white noise.

    When ``snr_db`` is given a seed is required and the noise is rescaled
    so the realized SNR matches exactly.
    """
    clean = Signal(
        gen_tone().samples + gen_impulses().samples, FIXTURE_SAMPLE_RATE_HZ
    )
    if snr_db is None:
        return clean
    if seed is None:
        raise ValueError("a seed is required when adding noise")
    return mix_to_snr(clean, seed, snr_db)


@dataclass(frozen=True)
class DefectSimParams:
    """Parameters of the repetitive-impact vibration model.

    Each impact launches a decaying resonance burst at ``f_n``; onsets
    repeat every ``T_prime`` seconds with a small random jitter, and the
    burst amplitudes are modulated at the shaft frequency ``f_m``.
    """

    f_m: float = 25.0
    T_prime: float = 0.015
    f_n: float = 2000.0
    B: float = 900.0
    amplitude_scale: float = 5.0
    jitter_frac: float = 0.02
    # Default ambient noise buries the bursts outside the resonance band,
    # so early-life specimens look healthy and selection has to work.
    noise_sigma: float = 8.0
    sample_rate_hz: float = 10000.0
    duration_s: float = 0.5
    seed: Seed = 0

    def __post_init__(self) -> None:
        # A NaN or infinite value here would not fail later: it silently drops
        # the bursts or the noise.
        for name in ("f_m", "T_prime", "f_n", "B", "amplitude_scale", "jitter_frac",
                     "noise_sigma"):
            _check_real(name, getattr(self, name), "be finite", lambda v: abs(v) < math.inf)
        # The rate comes before the bounds that are written in terms of it.
        _check_real("sample_rate_hz", self.sample_rate_hz, "be finite and positive",
                    lambda v: 0 < v < math.inf)
        _check_seed("seed", self.seed)
        # f_n > 0 comes first: the period test divides by it.
        _check_real("f_n", self.f_n, f"lie in (0, sample_rate_hz / 2), got f_n={self.f_n} "
                    f"and sample_rate_hz={self.sample_rate_hz}",
                    lambda v: 0 < v < self.sample_rate_hz / 2)
        _check_real("T_prime", self.T_prime, "exceed one resonance cycle, 1 / f_n",
                    lambda v: v > 1 / self.f_n)
        # B is a decay rate: a negative one grows each burst until exp overflows.
        for name in ("B", "jitter_frac", "noise_sigma"):
            _check_real(name, getattr(self, name), "be nonnegative", lambda v: v >= 0)
        # Onsets differ by T' * (1 + jitter_frac * (u2 - u1)), u in [-1, 1):
        # above one half two can swap, and a burst is dropped.
        _check_real("jitter_frac", self.jitter_frac, "be at most 0.5", lambda v: v <= 0.5)
        _check_real("duration_s", self.duration_s, "be positive", lambda v: v > 0)
        # gen_defect_signal allocates this many samples; the fGn cap bounds
        # it, and an infinite duration or product gives no count at all.
        samples = self.duration_s * self.sample_rate_hz
        _check_real("duration_s * sample_rate_hz", samples, f"be finite and round to at most "
                    f"{MAX_FGN_LENGTH} samples, got {samples}",
                    lambda v: abs(v) < math.inf and round(v) <= MAX_FGN_LENGTH)

    @property
    def defect_frequency_hz(self) -> float:
        """Impact repetition rate 1/T'."""
        return 1.0 / self.T_prime


def gen_defect_signal(p: DefectSimParams, severity: float) -> Signal:
    """One vibration record of jittered, amplitude-modulated resonance bursts.

    Bursts launch at t = i*T' + xi_i for i = 1..floor(duration/T'), each
    truncated at the next onset, with amplitude
    severity * A * cos(2*pi*f_m*(i*T' + xi_i)). White noise of standard
    deviation ``noise_sigma`` is added on top. Output is exactly linear
    in ``severity`` when the noise is off.
    """
    _check_real("severity", severity, f"be finite and nonnegative, got {severity}",
                lambda v: 0 <= v < math.inf)
    rng = np.random.default_rng(p.seed)
    n = int(round(p.duration_s * p.sample_rate_hz))
    t = np.arange(n, dtype=np.float64) / p.sample_rate_hz
    n_bursts = int(math.floor(p.duration_s / p.T_prime))
    jitter = rng.uniform(-1.0, 1.0, n_bursts) * p.jitter_frac * p.T_prime
    onsets = (np.arange(1, n_bursts + 1) * p.T_prime + jitter).clip(min=0.0)
    # Burst i covers t[bounds[i]:bounds[i + 1]]: the bursts tile
    # t[bounds[0]:bounds[-1]], and a burst that starts past the end is empty.
    bounds = np.searchsorted(t, np.append(onsets, p.duration_s), side="left")
    counts = np.diff(bounds)
    # math.cos per onset keeps the amplitudes libm's, whatever numpy's SIMD cos gives.
    amps = [severity * p.amplitude_scale * math.cos(2.0 * math.pi * p.f_m * tau)
            for tau in onsets.tolist()]
    u = t[bounds[0]:bounds[-1]] - np.repeat(onsets, counts)
    x = np.zeros(n)
    # Added, not assigned: 0.0 + -0.0 is 0.0, as the records have always held.
    x[bounds[0]:bounds[-1]] += (
        np.repeat(amps, counts) * np.exp(-p.B * u) * np.cos(2.0 * math.pi * p.f_n * u)
    )
    if p.noise_sigma > 0:
        x += p.noise_sigma * rng.standard_normal(n)
    return Signal(x, p.sample_rate_hz)


# The default severity law's near-healthy floor, and the minute at which
# its ramp from minute 300 reaches severity 10.
HEALTHY_SEVERITY = 1.0
FAILURE_MINUTE = 500


def default_severity_law(minute: int) -> float:
    """Near-healthy floor with a linear ramp after minute 300."""
    return HEALTHY_SEVERITY + 9.0 * max(0.0, (minute - 300.0) / (FAILURE_MINUTE - 300.0))


@dataclass(frozen=True, eq=False)
class DegradationRun:
    """A simulated run to failure: one specimen per minute, built when read.

    Minute m is ``gen_defect_signal`` of ``params`` reseeded with
    ``child_seeds[m - 1]``, at ``default_severity_law(m)``.
    """

    params: DefectSimParams
    child_seeds: tuple[int, ...]

    @property
    def n_specimens(self) -> int:
        """Number of minutes in the run."""
        return len(self.child_seeds)

    def specimen(self, minute: int) -> Signal:
        """Specimen recorded at a 1-based minute."""
        _check_int("minute", minute, 1)
        if minute > self.n_specimens:
            raise ValueError(f"minute must be <= n_specimens ({self.n_specimens}), got {minute}")
        return gen_defect_signal(
            replace(self.params, seed=self.child_seeds[minute - 1]), default_severity_law(minute)
        )

    @property
    def specimens(self) -> list[Signal]:
        """Every specimen, in minute order, built afresh on each read."""
        return [self.specimen(m) for m in range(1, self.n_specimens + 1)]


def gen_degradation_run(p: DefectSimParams, n_specimens: int) -> DegradationRun:
    """One specimen per minute with severity from ``default_severity_law``.

    Per-specimen seeds are derived deterministically from the parameter
    seed, so the run is reproducible and specimens are independent. No
    specimen is built until it is read.
    """
    _check_int("n_specimens", n_specimens, 1)
    child_seeds = np.random.SeedSequence(p.seed).generate_state(
        n_specimens, dtype=np.uint64
    )
    return DegradationRun(p, tuple(child_seeds.tolist()))
