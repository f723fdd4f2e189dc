"""Ensemble decompositions: EEMD, CEEMD, CEEMDAN, and NPCEEMD.

EEMD, CEEMD and NPCEEMD sift each noise realization independently, as one
task of ``workers.map``, which decides whether it runs in the caller or
on a worker process, and fold the trials in trial order, so the outputs
are the same bits wherever they ran, and drop each realization's trials
once they are folded. CEEMDAN maps each stage's sifts, one map per stage,
and each task also advances its trial's noise EMD by the one mode that the
stage reads, so no full noise decomposition is ever held; the stages
themselves follow one another in the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .emd import (
    ImfSet, SiftConfig, emd, mode_extrema, negligible_level, next_mode_extrema,
    sift_mode, take_modes,
)
from .noise import generate_fgn, generate_white
from .signals import Signal, _check_int, _check_real, _from_unit_peak, _to_unit_peak

METHODS = ("emd", "eemd", "ceemd", "ceemdan", "npceemd")


@dataclass(frozen=True)
class EnsembleConfig:
    """Decomposition method and its ensemble parameters.

    ``noise_scale`` is the injected-noise standard deviation as a fraction
    of the input signal's standard deviation. ``hurst`` is only used by
    npceemd. CEEMD-style methods run 2*ensemble_size trials (one plus/minus
    pair per ensemble member).
    """

    method: str = "npceemd"
    ensemble_size: int = 10
    noise_scale: float = 0.2
    hurst: float = 0.1
    master_seed: int = 0
    sift: SiftConfig = field(default_factory=SiftConfig)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        _check_int("ensemble_size", self.ensemble_size, 1)
        _check_int("master_seed", self.master_seed, 0)
        _check_real("noise_scale", self.noise_scale, "be positive and finite",
                    lambda v: 0 < v < math.inf)
        _check_real("hurst", self.hurst, "lie strictly inside (0, 1)", lambda h: 0 < h < 1)
        if not isinstance(self.sift, SiftConfig):
            raise ValueError(f"sift must be a SiftConfig, not {self.sift!r}")


# The signs of a noise realization's trials: x + w alone for eemd, and a
# plus/minus pair for ceemd and npceemd, whose noise cancels in the mean.
_SIGNS = {"eemd": (1.0,), "ceemd": (1.0, -1.0), "npceemd": (1.0, -1.0)}


def _trial_noise(cfg: EnsembleConfig, n: int, trial: int) -> np.ndarray:
    """Unit-variance noise for one trial: fGn of the configured Hurst
    exponent for npceemd, and white noise for the other methods. The seed
    folds in the trial index so scheduling can never change results."""
    seed = (int(cfg.master_seed), trial)
    if cfg.method == "npceemd":
        return generate_fgn(cfg.hurst, n, seed)
    return generate_white(n, seed)


def _realization(
    x: np.ndarray, rate_hz: float, scale: float, cfg: EnsembleConfig, trial: int
) -> list[ImfSet]:
    """The trials of one noise realization: ``emd`` of x + sign * w for
    each of the method's signs, with w the trial's noise times ``scale``."""
    w = scale * _trial_noise(cfg, x.size, trial)
    return [emd(Signal(x + sign * w, rate_hz), cfg.sift) for sign in _SIGNS[cfg.method]]


def _noise_ensemble(s: Signal, cfg: EnsembleConfig) -> ImfSet:
    """Decompose the signal plus each sign of every trial's noise realization
    and average all trials; with signs (+1, -1) the injected noise cancels
    in the mean.

    Each realization is one task (``_realization``) of ``workers.map``,
    which runs it in the caller or on a worker process. Either way the
    trials come back in the order j+, j- and each is added to zero-started
    running sums as it arrives, so the output is the same bits at any
    worker count; a trial's warnings and error surface at its place in
    that order. A trial with fewer modes adds nothing to the later sums,
    which biases late averaged modes toward zero; the output count is the
    largest trial count.
    """
    x = s.samples
    scale = cfg.noise_scale * np.std(x)
    tasks = [(x, s.sample_rate_hz, scale, cfg, j) for j in range(cfg.ensemble_size)]
    sums: list[np.ndarray] = []
    residue = np.zeros(x.size)
    for trials in workers.map(_realization, tasks):
        for trial in trials:
            sums.extend(np.zeros(x.size) for _ in range(trial.n_imfs - len(sums)))
            for total, imf in zip(sums, trial.imfs):
                total += imf
            residue += trial.residue
        # Folded: free them before the next realization is sifted or read.
        del trials, trial
    weight = 1.0 / (cfg.ensemble_size * len(_SIGNS[cfg.method]))
    for total in sums:
        total *= weight
    residue *= weight
    return ImfSet(sums, residue)


# A noise realization's unit-peak EMD between two of CEEMDAN's stages:
# its residue, the exponent e of its 2**-e scale and its starting
# ``negligible_level``; None once that EMD has ended.
NoiseState = tuple[np.ndarray, int, float] | None


def _stage_mode(
    residue: np.ndarray, eps: float, sift: SiftConfig, noise: NoiseState
) -> tuple[np.ndarray, NoiseState]:
    """One member's share of a CEEMDAN stage, and its noise EMD's next state.

    The noise EMD gives its next mode, scaled back by 2**e, unless
    ``next_mode_extrema``, the stop that ``take_modes`` uses, ends it (the
    mode cap holds, as the stages stop at the same cap); the residue plus
    eps times that mode, or the residue alone once the noise EMD has ended,
    gives up its first mode: itself when it has too few extrema to sift.
    """
    perturbed = residue
    if noise is not None:
        w, e, negligible = noise
        extrema = next_mode_extrema(w, negligible)
        if extrema is None:
            noise = None
        else:
            mode = sift_mode(w, extrema, sift)
            noise = w - mode, e, negligible
            perturbed = residue + eps * np.ldexp(mode, e)
    extrema = mode_extrema(perturbed)
    return (perturbed if extrema is None else sift_mode(perturbed, extrema, sift)), noise


def _ceemdan(s: Signal, cfg: EnsembleConfig) -> ImfSet:
    """Stage-wise ensemble with adaptive noise (Torres et al., 2011).

    Stage k perturbs the running residue with eps_k times the k-th EMD
    mode of each trial's white noise (eps_k = noise_scale times the
    residue's standard deviation), extracts one IMF as the ensemble mean
    of first modes, subtracts it, and repeats until a ``take_modes`` stop.
    The telescoping updates make the reconstruction exact up to float
    accumulation.

    Each stage is one ``workers.map`` of Ne ``_stage_mode`` tasks, which
    also advance the noise EMDs by one mode, so the caller holds Ne noise
    residues rather than Ne full noise decompositions. A stage adds its
    first modes in trial order into a zero-started sum, so the output is
    the same bits at any worker count.
    """
    x = s.samples
    noises: list[NoiseState] = []
    for j in range(cfg.ensemble_size):
        # Each member's white noise, scaled to a unit peak as ``emd`` does.
        w, e = _to_unit_peak(_trial_noise(cfg, x.size, j))
        noises.append((w, e, negligible_level(w)))
    del w  # the first stage replaces it, so it must not outlive that stage

    def stage(residue: np.ndarray, *_: object) -> np.ndarray:
        eps = cfg.noise_scale * np.std(residue)
        tasks = [(residue, eps, cfg.sift, noise) for noise in noises]
        noises.clear()
        total = np.zeros(x.size)
        for j, (mode, noise) in enumerate(workers.map(_stage_mode, tasks)):
            # The map has read task j, so its old noise state can go.
            tasks[j] = None
            noises.append(noise)
            total += mode
        return total / cfg.ensemble_size

    return take_modes(x.copy(), cfg.sift.mode_cap(x.size), stage)


def decompose(s: Signal, cfg: EnsembleConfig) -> ImfSet:
    """Run the decomposition that ``cfg.method`` names.

    eemd averages Ne white-noise trials; ceemd averages Ne plus/minus
    white-noise pairs; npceemd is ceemd with fractional Gaussian noise of
    the configured Hurst exponent (default 0.1, rich in high frequency);
    ceemdan sifts stage-wise with adaptive noise. The fixed defaults
    (Ne=10, H=0.1, noise_scale=0.2) are the point: they are not tuned per
    signal. Every method sifts the record at a unit peak, exactly scaled
    (``signals._to_unit_peak``); a mode that outgrows the largest float
    when scaled back raises ValueError.
    """
    if cfg.method == "emd":
        return emd(s, cfg.sift)
    x, e = _to_unit_peak(s.samples)
    scaled = Signal(x, s.sample_rate_hz)
    if cfg.method == "ceemdan":
        imf_set = _ceemdan(scaled, cfg)
    else:
        imf_set = _noise_ensemble(scaled, cfg)
    _from_unit_peak(e, *imf_set.imfs, imf_set.residue)
    return imf_set
