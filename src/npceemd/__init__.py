"""Ensemble empirical mode decomposition with fractional-noise pairs,
mutual-information mode selection, and envelope-spectrum defect diagnosis."""

__version__ = "0.1.0"

from .emd import ImfSet, SiftConfig, emd, find_extrema, sift_once, spline_envelope
from .ensemble import EnsembleConfig, decompose
from .mi import (
    MiScore,
    digamma,
    knn_mutual_information,
    score_imfs,
    select_by_kurtosis,
    select_by_mi,
)
from .noise import FgnParams, fgn_autocovariance, generate_fgn, generate_white
from .pipeline import (
    Component,
    DiagnosisReport,
    SeparationScore,
    diagnose,
    diagnose_kurtosis_baseline,
    separation_scores,
)
from .signals import Signal, kurtosis, mix_to_snr, rms
from .simulate import (
    DefectSimParams,
    DegradationRun,
    gen_combined,
    gen_defect_signal,
    gen_degradation_run,
    gen_impulses,
    gen_tone,
)
from .spectral import (
    EnvelopeSpectrum,
    PeakDetection,
    analytic_envelope,
    detect_defect_peak,
    envelope_spectrum,
)

__all__ = [
    "__version__",
    "Signal", "rms", "kurtosis", "mix_to_snr",
    "SiftConfig", "ImfSet", "find_extrema", "spline_envelope", "sift_once", "emd",
    "FgnParams", "fgn_autocovariance", "generate_fgn", "generate_white",
    "EnsembleConfig", "decompose",
    "MiScore", "digamma", "knn_mutual_information", "score_imfs",
    "select_by_mi", "select_by_kurtosis",
    "EnvelopeSpectrum", "PeakDetection", "analytic_envelope",
    "envelope_spectrum", "detect_defect_peak",
    "DefectSimParams", "DegradationRun", "gen_tone", "gen_impulses",
    "gen_combined", "gen_defect_signal", "gen_degradation_run",
    "DiagnosisReport", "Component", "SeparationScore", "diagnose",
    "diagnose_kurtosis_baseline", "separation_scores",
]
