"""End-to-end diagnosis: decompose, score, select, demodulate, verdict."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .emd import ImfSet
from .ensemble import EnsembleConfig, decompose
from .mi import AllDegenerate, MiScore, score_imfs, select_by_kurtosis, select_by_mi
from .signals import Signal
from .spectral import (
    MIN_ENVELOPE_SAMPLES,
    EnvelopeSpectrum,
    PeakDetection,
    analytic_envelope,
    detect_defect_peak,
    envelope_spectrum,
)

VERDICT_DEFECT = "DEFECT_CONFIRMED"
VERDICT_NO_DEFECT = "NO_DEFECT_EVIDENCE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE_EMPTY_SELECTION"


@dataclass(frozen=True, eq=False)
class DiagnosisReport:
    """Everything one diagnosis produced, selection partition included."""

    method: str
    method_variant: str  # "mi" or "kurtosis_baseline"
    mi_scores: tuple[MiScore, ...]
    selected_indices: tuple[int, ...]
    rejected_indices: tuple[int, ...]
    combined_signal_digest: str
    spectrum: EnvelopeSpectrum
    defect_frequency_hz: float | None
    detection: PeakDetection | None
    verdict: str


@dataclass(frozen=True, eq=False)
class Component:
    """Named ground-truth component; impulsive ones are compared by envelope."""

    name: str
    samples: np.ndarray
    impulsive: bool = False


@dataclass(frozen=True)
class SeparationScore:
    """How well a single IMF isolates one ground-truth component."""

    component_name: str
    best_imf_index: int
    correlation: float
    leakage: float


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    denom = float(np.sqrt(np.dot(da, da) * np.dot(db, db)))
    if denom == 0.0:
        return 0.0
    return float(np.dot(da, db) / denom)


def _checked_decompose(raw: Signal, cfg: EnsembleConfig) -> ImfSet:
    """Decompose a record long enough for the envelope spectrum at the end."""
    if len(raw) < MIN_ENVELOPE_SAMPLES:
        raise ValueError(
            f"need at least {MIN_ENVELOPE_SAMPLES} samples, got {len(raw)}"
        )
    return decompose(raw, cfg)


def _combine(imf_set: ImfSet, selected: Sequence[int]) -> np.ndarray:
    combined = np.zeros(imf_set.source_length)
    for index in selected:
        combined += imf_set.imfs[index - 1]
    return combined


def _build_report(
    method: str,
    variant: str,
    imf_set: ImfSet,
    scores: tuple[MiScore, ...],
    selected: list[int],
    target_hz: float | None,
    n_harmonics: int,
    peak_ratio_threshold: float,
) -> DiagnosisReport:
    rejected = [i for i in range(1, imf_set.n_imfs + 1) if i not in selected]
    combined = _combine(imf_set, selected)
    digest = hashlib.sha256(combined.tobytes()).hexdigest()
    spectrum = envelope_spectrum(Signal(combined, imf_set.sample_rate_hz))
    detection = None
    if not selected:
        verdict = VERDICT_INCONCLUSIVE
    elif target_hz is not None:
        detection = detect_defect_peak(
            spectrum, target_hz, n_harmonics, peak_ratio_threshold
        )
        verdict = VERDICT_DEFECT if detection.found else VERDICT_NO_DEFECT
    else:
        floor = float(np.median(spectrum.amplitudes[1:]))
        top = float(np.max(spectrum.amplitudes[1:]))
        confirmed = top > peak_ratio_threshold * floor if floor > 0 else top > 0
        verdict = VERDICT_DEFECT if confirmed else VERDICT_NO_DEFECT
    return DiagnosisReport(
        method=method,
        method_variant=variant,
        mi_scores=scores,
        selected_indices=tuple(selected),
        rejected_indices=tuple(rejected),
        combined_signal_digest=digest,
        spectrum=spectrum,
        defect_frequency_hz=target_hz,
        detection=detection,
        verdict=verdict,
    )


def diagnose(
    raw: Signal,
    cfg: EnsembleConfig,
    mi_threshold: float = 0.1,
    target_hz: float | None = None,
    k: int = 3,
    n_harmonics: int = 3,
    peak_ratio_threshold: float = 5.0,
) -> DiagnosisReport:
    """Decompose, keep the IMFs informative about the raw signal, and look
    for the defect frequency in their combined envelope spectrum.

    IMFs with mutual information above ``mi_threshold`` (nats) are summed
    into the resulting signal. With a ``target_hz`` the verdict follows
    the peak test there; without one it reflects whether any non-DC bin
    clears the peak ratio. An empty selection yields the distinct
    inconclusive verdict rather than falling back to another selector.
    A record shorter than MIN_ENVELOPE_SAMPLES raises ValueError before
    it is decomposed.
    """
    imf_set = _checked_decompose(raw, cfg)
    scores = tuple(score_imfs(raw, imf_set, k))
    selected = select_by_mi(list(scores), mi_threshold)
    return _build_report(
        cfg.method, "mi", imf_set, scores, selected, target_hz, n_harmonics,
        peak_ratio_threshold,
    )


def diagnose_kurtosis_baseline(
    raw: Signal,
    cfg: EnsembleConfig,
    target_hz: float | None = None,
    n_harmonics: int = 3,
    peak_ratio_threshold: float = 5.0,
) -> DiagnosisReport:
    """Baseline selector: keep only the single maximum-kurtosis IMF."""
    imf_set = _checked_decompose(raw, cfg)
    try:
        selected = [select_by_kurtosis(imf_set)]
    except AllDegenerate:
        selected = []
    return _build_report(
        cfg.method, "kurtosis_baseline", imf_set, (), selected, target_hz,
        n_harmonics, peak_ratio_threshold,
    )


def separation_scores(
    imf_set: ImfSet, components: Sequence[Component]
) -> list[SeparationScore]:
    """Best single-IMF correlation (and its leakage) per component.

    Impulsive components are compared through their analytic envelopes,
    since burst carriers make raw-sample correlation phase-sensitive.
    Leakage is 1 - correlation**2.
    """
    results = []
    for comp in components:
        if comp.samples.size != imf_set.source_length:
            raise ValueError(f"component {comp.name!r} length mismatch")
        target = analytic_envelope(comp.samples) if comp.impulsive else comp.samples
        best_index, best_r = 0, 0.0
        for i, imf in enumerate(imf_set.imfs, start=1):
            candidate = analytic_envelope(imf) if comp.impulsive else imf
            r = _pearson(candidate, target)
            if abs(r) > abs(best_r) or best_index == 0:
                best_index, best_r = i, r
        results.append(
            SeparationScore(
                component_name=comp.name,
                best_imf_index=best_index,
                correlation=best_r,
                leakage=1.0 - best_r * best_r,
            )
        )
    return results
