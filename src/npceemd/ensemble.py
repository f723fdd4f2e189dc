"""Ensemble decompositions: EEMD, CEEMD, CEEMDAN, and NPCEEMD.

EEMD, CEEMD and NPCEEMD sift each noise realization independently, as one
task of ``workers.map``, which decides whether it runs in the caller or
on a worker process, and fold the trials in trial order, so the outputs
are the same bits wherever they ran. CEEMDAN maps its noise realizations'
EMDs the same way, and then each stage's sifts, one map per stage; the
stages themselves follow one another in the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import workers
from .emd import Extrema, ImfSet, SiftConfig, emd, mode_extrema, sift_mode, take_modes
from .noise import generate_fgn, generate_white
from .signals import Signal, _from_unit_peak, _is_integral, _to_unit_peak

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
        if not _is_integral(self.ensemble_size):
            raise ValueError("ensemble_size must be an integer")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if not _is_integral(self.master_seed):
            raise ValueError("master_seed must be an integer")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not 0.0 < self.noise_scale < float("inf"):
            raise ValueError("noise_scale must be positive and finite")
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must lie strictly inside (0, 1)")


def _trial_noise(cfg: EnsembleConfig, n: int, trial: int, fractional: bool) -> np.ndarray:
    """Unit-variance noise for one trial; the seed folds in the trial index
    so scheduling can never change results."""
    seed = (int(cfg.master_seed), trial)
    if fractional:
        return generate_fgn(cfg.hurst, n, seed)
    return generate_white(n, seed)


def _realization(
    x: np.ndarray, rate_hz: float, scale: float, cfg: EnsembleConfig, trial: int,
    fractional: bool, signs: tuple[float, ...],
) -> list[ImfSet]:
    """The trials of one noise realization: ``emd`` of x + sign * w for
    each sign, with w the trial's noise times ``scale``."""
    w = scale * _trial_noise(cfg, x.size, trial, fractional=fractional)
    return [emd(Signal(x + sign * w, rate_hz), cfg.sift) for sign in signs]


def _noise_ensemble(
    s: Signal, cfg: EnsembleConfig, fractional: bool, signs: tuple[float, ...]
) -> ImfSet:
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
    tasks = [
        (x, s.sample_rate_hz, scale, cfg, j, fractional, signs)
        for j in range(cfg.ensemble_size)
    ]
    sums: list[np.ndarray] = []
    residue = np.zeros(x.size)
    for trials in workers.map(_realization, tasks):
        for trial in trials:
            sums.extend(np.zeros(x.size) for _ in range(trial.n_imfs - len(sums)))
            for total, imf in zip(sums, trial.imfs):
                total += imf
            residue += trial.residue
    weight = 1.0 / (cfg.ensemble_size * len(signs))
    return ImfSet([total * weight for total in sums], residue * weight)


def _noise_modes(cfg: EnsembleConfig, n: int, rate_hz: float, j: int) -> list[np.ndarray]:
    """The EMD modes of trial j's white noise, for CEEMDAN's stages."""
    return emd(Signal(_trial_noise(cfg, n, j, fractional=False), rate_hz), cfg.sift).imfs


def _stage_mode(perturbed: np.ndarray, sift: SiftConfig) -> np.ndarray:
    """The first mode of one perturbed residue: itself when it has too
    few extrema to sift."""
    extrema = mode_extrema(perturbed)
    return perturbed if extrema is None else sift_mode(perturbed, extrema, sift)


def _ceemdan(s: Signal, cfg: EnsembleConfig) -> ImfSet:
    """Stage-wise ensemble with adaptive noise.

    Stage k perturbs the running residue with eps_k times the k-th EMD
    mode of each stored noise realization (eps_k = noise_scale times the
    residue's standard deviation), extracts one IMF as the ensemble mean
    of first modes, subtracts it, and repeats until a ``take_modes`` stop.
    The telescoping updates make the reconstruction exact up to float
    accumulation.

    The noise realizations' EMDs are one ``workers.map``, and each stage's
    sifts another; a stage adds its first modes in trial order into a
    zero-started sum, so the output is the same bits at any worker count.
    """
    x = s.samples
    noise_modes = list(workers.map(
        _noise_modes, [(cfg, x.size, s.sample_rate_hz, j) for j in range(cfg.ensemble_size)]
    ))

    def stage(residue: np.ndarray, _: Extrema, k: int) -> np.ndarray:
        eps = cfg.noise_scale * np.std(residue)
        tasks = [
            (residue + eps * modes[k] if k < len(modes) else residue, cfg.sift)
            for modes in noise_modes
        ]
        total = np.zeros(x.size)
        for mode in workers.map(_stage_mode, tasks):
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
    x, e = _to_unit_peak(s.samples)
    scaled = Signal(x, s.sample_rate_hz)
    if cfg.method == "emd":
        imf_set = emd(scaled, cfg.sift)
    elif cfg.method == "ceemdan":
        imf_set = _ceemdan(scaled, cfg)
    else:
        signs = (1.0,) if cfg.method == "eemd" else (1.0, -1.0)
        imf_set = _noise_ensemble(scaled, cfg, fractional=cfg.method == "npceemd", signs=signs)
    _from_unit_peak(e, *imf_set.imfs, imf_set.residue)
    return imf_set
