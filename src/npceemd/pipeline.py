"""End-to-end diagnosis: decompose, score, select, demodulate, verdict."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .emd import ImfSet
from .ensemble import EnsembleConfig, decompose
from .mi import MiScore, score_imfs, select_by_kurtosis, select_by_mi
from .signals import Signal, _to_unit_peak
from .spectral import (
    MIN_ENVELOPE_SAMPLES,
    PEAK_RATIO_THRESHOLD,
    EnvelopeSpectrum,
    PeakDetection,
    analytic_envelope,
    detect_defect_peak,
    envelope_spectrum,
)

VERDICT_DEFECT = "DEFECT_CONFIRMED"
VERDICT_NO_DEFECT = "NO_DEFECT_EVIDENCE"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE_EMPTY_SELECTION"

# IMF selectors, the paper's first; each names its report's method_variant.
_VARIANTS = {"mi": "mi", "kurtosis": "kurtosis_baseline"}
SELECTORS = tuple(_VARIANTS)


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
    # Each series at a unit peak: the ratio is scale-free, and the products
    # neither overflow nor underflow.
    a, b = _to_unit_peak(a)[0], _to_unit_peak(b)[0]
    da = a - a.mean()
    db = b - b.mean()
    denom = float(np.sqrt(np.dot(da, da) * np.dot(db, db)))
    if denom == 0.0:
        return 0.0
    return float(np.dot(da, db) / denom)


def diagnose(
    raw: Signal,
    cfg: EnsembleConfig,
    *,
    select: str = SELECTORS[0],
    target_hz: float | None = None,
) -> DiagnosisReport:
    """Decompose, select IMFs, and look for the defect frequency in the
    envelope spectrum of their sum.

    ``select="mi"`` keeps the IMFs with more than mi.MI_THRESHOLD nats of
    mutual information (mi.KSG_K neighbours) with the raw signal; the
    ``"kurtosis"`` baseline keeps the single maximum-kurtosis IMF. With a
    ``target_hz`` the verdict follows the peak test there; without one it
    reflects whether any non-DC bin clears PEAK_RATIO_THRESHOLD times the
    median. An empty selection yields the distinct inconclusive verdict
    rather than falling back to another selector. Arguments are checked
    before anything is decomposed: an unknown selector, a record shorter
    than MIN_ENVELOPE_SAMPLES, or a target outside (0, Nyquist) raises
    ValueError.
    """
    n = len(raw)
    if select not in SELECTORS:
        raise ValueError(f"select must be one of {SELECTORS}, got {select!r}")
    if n < MIN_ENVELOPE_SAMPLES:
        raise ValueError(f"need at least {MIN_ENVELOPE_SAMPLES} samples, got {n}")
    nyquist = float(np.fft.rfftfreq(n, 1.0 / raw.sample_rate_hz)[-1])
    if target_hz is not None and not 0.0 < target_hz < nyquist:
        raise ValueError(f"target_hz must lie in (0, {nyquist}) Hz, got {target_hz}")

    imf_set = decompose(raw, cfg)
    if select == "mi":
        scores = tuple(score_imfs(raw, imf_set))
        selected = select_by_mi(list(scores))
    else:
        scores, selected = (), select_by_kurtosis(imf_set)
    combined = np.zeros(n)
    for index in selected:
        combined += imf_set.imfs[index - 1]
    spectrum = envelope_spectrum(Signal(combined, raw.sample_rate_hz))
    detection = None
    if not selected:
        verdict = VERDICT_INCONCLUSIVE
    elif target_hz is not None:
        detection = detect_defect_peak(spectrum, target_hz)
        verdict = VERDICT_DEFECT if detection.found else VERDICT_NO_DEFECT
    else:
        floor = float(np.median(spectrum.amplitudes[1:]))
        top = float(np.max(spectrum.amplitudes[1:]))
        confirmed = top > PEAK_RATIO_THRESHOLD * floor if floor > 0 else top > 0
        verdict = VERDICT_DEFECT if confirmed else VERDICT_NO_DEFECT
    rejected = [i for i in range(1, imf_set.n_imfs + 1) if i not in selected]
    return DiagnosisReport(
        method=cfg.method,
        method_variant=_VARIANTS[select],
        mi_scores=scores,
        selected_indices=tuple(selected),
        rejected_indices=tuple(rejected),
        combined_signal_digest=hashlib.sha256(combined.tobytes()).hexdigest(),
        spectrum=spectrum,
        defect_frequency_hz=target_hz,
        detection=detection,
        verdict=verdict,
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
