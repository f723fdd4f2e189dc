import numpy as np
import pytest

from npceemd import (
    DefectSimParams,
    emd,
    gen_combined,
    gen_degradation_run,
    gen_impulses,
    gen_tone,
)
from npceemd.pipeline import VERDICT_DEFECT, VERDICT_INCONCLUSIVE, VERDICT_NO_DEFECT

# One fixed seed per experiment keeps the whole suite deterministic.
FIXTURE_SEED = 0  # clean/noisy combined-signal studies
DEGRADATION_SEED = 4  # run-to-failure study
FIXTURE_SNR_DB = -30.0  # nominal SNR of the noisy combined fixture
# Noise draws that decide the comparative clauses on the noisy fixture.
# Draw d uses fixture seed d and master_seed d; draw 0 is FIXTURE_SEED.
COMPARISON_DRAWS = (0, 1, 2, 3, 4)
DEFECT_HZ = 1.0 / 0.015
# Degenerate records (shape -> samples of length n) and their lengths, from
# below the envelope's 8 samples up; each must give a defined outcome.
DEGENERATE_SHAPES = {
    "constant": np.ones,
    "zero": np.zeros,
    "ramp": lambda n: np.linspace(-1.0, 1.0, n),
    "alternating": lambda n: (-1.0) ** np.arange(n),
    "sine": lambda n: np.sin(0.9 * np.arange(n)),
}
DEGENERATE_LENGTHS = (4, 5, 7, 8, 16, 64)
VERDICTS = (VERDICT_DEFECT, VERDICT_NO_DEFECT, VERDICT_INCONCLUSIVE)


@pytest.fixture(scope="session")
def tone_signal():
    return gen_tone()


@pytest.fixture(scope="session")
def impulse_signal():
    return gen_impulses()


@pytest.fixture(scope="session")
def clean_combined():
    return gen_combined()


@pytest.fixture(scope="session")
def emd_clean_combined(clean_combined):
    return emd(clean_combined)


@pytest.fixture(scope="session")
def degradation_run():
    return gen_degradation_run(DefectSimParams(seed=DEGRADATION_SEED), 440)


@pytest.fixture(scope="session")
def minute_440(degradation_run):
    return degradation_run.specimen(440)


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt(np.dot(a, a) * np.dot(b, b))
    return float(np.dot(a, b) / denom) if denom else 0.0
