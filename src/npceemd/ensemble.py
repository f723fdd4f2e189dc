"""Ensemble decompositions: EEMD, CEEMD, CEEMDAN, and NPCEEMD."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .emd import ImfSet, SiftConfig, emd, holds_mode
from .noise import FgnParams, generate_fgn, generate_white
from .signals import Signal

METHODS = ("emd", "eemd", "ceemd", "ceemdan", "npceemd")


@dataclass(frozen=True)
class EnsembleConfig:
    """Decomposition method and its ensemble parameters.

    ``noise_scale`` is the injected-noise standard deviation as a fraction
    of the input signal's standard deviation. ``hurst`` is only used by
    npceemd. CEEMD-style methods run 2*ensemble_size trials (one plus/minus
    pair per ensemble member). The defaults are deliberately fixed and are
    never tuned per signal.
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
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if not self.noise_scale > 0:
            raise ValueError("noise_scale must be positive")
        if not 0.0 < self.hurst < 1.0:
            raise ValueError("hurst must lie strictly inside (0, 1)")


def _require(cfg: EnsembleConfig, method: str) -> None:
    if cfg.method != method:
        raise ValueError(f"config is for {cfg.method!r}, not {method!r}")


def _trial_noise(cfg: EnsembleConfig, n: int, trial: int, fractional: bool) -> np.ndarray:
    """Unit-variance noise for one trial; the seed folds in the trial index
    so scheduling can never change results."""
    seed = (int(cfg.master_seed), trial)
    if fractional:
        return generate_fgn(FgnParams(hurst=cfg.hurst, sigma=1.0, length=n, seed=seed))
    return generate_white(1.0, n, seed)


def _aligned_mean(trials: list[ImfSet]) -> tuple[list[np.ndarray], np.ndarray]:
    """Average IMFs of the same order across trials.

    Trials with fewer modes contribute zero IMFs at the tail, which biases
    late averaged modes toward zero; the output count is the maximum trial
    count. Residues are averaged directly.
    """
    n = trials[0].source_length
    count = max(t.n_imfs for t in trials)
    sums = [np.zeros(n) for _ in range(count)]
    residue = np.zeros(n)
    for t in trials:
        for i, imf in enumerate(t.imfs):
            sums[i] += imf
        residue += t.residue
    scale = 1.0 / len(trials)
    return [s * scale for s in sums], residue * scale


def _noise_ensemble(
    s: Signal, cfg: EnsembleConfig, fractional: bool, signs: tuple[float, ...]
) -> ImfSet:
    """Decompose the signal plus each sign of every trial's noise realization
    and average all trials; with signs (+1, -1) the injected noise cancels
    in the mean. Trials run in the order j+, j-."""
    x = s.samples
    scale = cfg.noise_scale * float(np.std(x))
    trials = []
    for j in range(cfg.ensemble_size):
        w = scale * _trial_noise(cfg, x.size, j, fractional=fractional)
        for sign in signs:
            trials.append(emd(Signal(x + sign * w, s.sample_rate_hz), cfg.sift))
    imfs, residue = _aligned_mean(trials)
    return ImfSet(imfs, residue, x.size, s.sample_rate_hz)


def eemd(s: Signal, cfg: EnsembleConfig) -> ImfSet:
    """Average the decompositions of independently noise-perturbed copies."""
    _require(cfg, "eemd")
    return _noise_ensemble(s, cfg, fractional=False, signs=(1.0,))


def ceemd(s: Signal, cfg: EnsembleConfig) -> ImfSet:
    """Complementary ensemble: plus/minus white-noise pairs."""
    _require(cfg, "ceemd")
    return _noise_ensemble(s, cfg, fractional=False, signs=(1.0, -1.0))


def npceemd(s: Signal, cfg: EnsembleConfig) -> ImfSet:
    """Complementary ensemble with fractional Gaussian noise pairs.

    Identical to ceemd except the injected noise is fGn with the
    configured Hurst exponent (default 0.1, rich in high frequency).
    The fixed defaults (Ne=10, H=0.1, noise_scale=0.2) are the point:
    they are not tuned per signal.
    """
    _require(cfg, "npceemd")
    return _noise_ensemble(s, cfg, fractional=True, signs=(1.0, -1.0))


def ceemdan(s: Signal, cfg: EnsembleConfig) -> ImfSet:
    """Stage-wise ensemble with adaptive noise.

    Stage k perturbs the running residue with eps_k times the k-th EMD
    mode of each stored noise realization (eps_k = noise_scale times the
    residue's standard deviation), extracts one IMF as the ensemble mean
    of first modes, subtracts it, and repeats. The telescoping updates
    make the reconstruction exact up to float accumulation.
    """
    _require(cfg, "ceemdan")
    x = s.samples
    n = x.size
    limit = cfg.sift.mode_cap(n)
    noise_modes = []
    for j in range(cfg.ensemble_size):
        w = _trial_noise(cfg, n, j, fractional=False)
        noise_modes.append(emd(Signal(w, s.sample_rate_hz), cfg.sift).imfs)
    first_only = replace(cfg.sift, max_imfs=1)
    imfs: list[np.ndarray] = []
    residue = x.copy()
    while len(imfs) < limit:
        if not holds_mode(residue):
            break
        eps = cfg.noise_scale * float(np.std(residue))
        stage = np.zeros(n)
        for modes in noise_modes:
            k = len(imfs)
            perturbed = residue + eps * modes[k] if k < len(modes) else residue
            extracted = emd(Signal(perturbed, s.sample_rate_hz), first_only)
            stage += extracted.imfs[0] if extracted.n_imfs else perturbed
        imf_k = stage / cfg.ensemble_size
        imfs.append(imf_k)
        residue = residue - imf_k
    return ImfSet(imfs, residue, n, s.sample_rate_hz)


def decompose(s: Signal, cfg: EnsembleConfig) -> ImfSet:
    """Run the decomposition selected by the config."""
    if cfg.method == "emd":
        return emd(s, cfg.sift)
    table = {"eemd": eemd, "ceemd": ceemd, "ceemdan": ceemdan, "npceemd": npceemd}
    return table[cfg.method](s, cfg)
