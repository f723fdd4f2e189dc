import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import digamma
from hypothesis import given, settings
from hypothesis import strategies as st

from npceemd import (
    EnsembleConfig,
    Signal,
    diagnose,
    emd,
    knn_mutual_information,
    score_imfs,
    select_by_kurtosis,
    select_by_mi,
)
from npceemd import mi, workers
from npceemd.emd import ImfSet
from npceemd.mi import (
    DegenerateData,
    MiScore,
    _break_ties,
    _strict_marginal_counts,
)
from conftest import DEFECT_HZ


def gaussian_pair(rho: float, n: int, seed: int):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    x = z[:, 0]
    y = rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, 1]
    return x, y


def gaussian_mi(rho: float) -> float:
    return -0.5 * np.log(1.0 - rho * rho)


class TestKnnMutualInformation:
    def test_independent_gaussians_near_zero(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(5000)
        y = rng.standard_normal(5000)
        assert abs(knn_mutual_information(x, y, 3)) <= 0.05

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_correlated_gaussians_closed_form(self, rho):
        x, y = gaussian_pair(rho, 5000, 33)
        est = knn_mutual_information(x, y, 3)
        assert est == pytest.approx(gaussian_mi(rho), abs=0.05)

    def test_counts_match_brute_force(self):
        # exact agreement of the neighbour statistics with an O(N^2) oracle
        x, y = gaussian_pair(0.6, 2000, 7)
        k = 3
        n = x.size
        dx = np.abs(x[:, None] - x[None, :])
        dy = np.abs(y[:, None] - y[None, :])
        dz = np.maximum(dx, dy)
        np.fill_diagonal(dz, np.inf)
        eps = np.partition(dz, k - 1, axis=1)[:, k - 1]
        nx = ((dx < eps[:, None]).sum(axis=1) - 1).astype(float)
        ny = ((dy < eps[:, None]).sum(axis=1) - 1).astype(float)
        brute = float(
            digamma(float(n))
            + digamma(float(k))
            - np.mean(digamma(nx + 1.0) + digamma(ny + 1.0))
        )
        assert knn_mutual_information(x, y, k) == pytest.approx(brute, abs=1e-12)

    def test_symmetry(self):
        x, y = gaussian_pair(0.4, 1500, 3)
        forward = knn_mutual_information(x, y, 3)
        backward = knn_mutual_information(y, x, 3)
        assert abs(forward - backward) <= 1e-9

    def test_monotone_transform_stability(self):
        x, y = gaussian_pair(0.9, 5000, 33)
        base = knn_mutual_information(x, y, 3)
        cubed = knn_mutual_information(x, y**3, 3)
        assert abs(base - cubed) < 0.05

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="need more than k"):
            knn_mutual_information(np.arange(4.0), np.arange(4.0), 3)

    def test_degenerate_constant_series(self):
        with pytest.raises(DegenerateData):
            knn_mutual_information(np.zeros(100), np.zeros(100), 3)

    def test_estimate_not_clamped_below_zero(self):
        rng = np.random.default_rng(100)
        values = [
            knn_mutual_information(rng.standard_normal(300), rng.standard_normal(300), 3)
            for _ in range(40)
        ]
        assert min(values) < 0.0  # independence estimates straddle zero


def marginal_axis(kind: str, n: int, rng) -> np.ndarray:
    if kind == "ties":
        return rng.integers(0, 6, n).astype(float)
    if kind == "offset":
        # at a 1e8 offset the tie-breaking jitter (1e-10 of the span) rounds away
        return _break_ties(1e8 + rng.integers(0, 4, n), 0)
    # mixed magnitudes from 1e-200 to 1e200, both signs
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-200.0, 200.0, n)


@pytest.mark.parametrize("kind,seed", [("ties", 71), ("offset", 72), ("mixed", 73)])
def test_strict_marginal_counts_match_pairwise(kind, seed):
    # the counts must equal the O(N^2) strict count |a_j - a_i| < eps_i,
    # with eps from the same k=3 Chebyshev query the estimator makes
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(20, 300))
        a = marginal_axis(kind, n, rng)
        b = marginal_axis(kind, n, rng)
        points = np.column_stack((a, b))
        eps = cKDTree(points).query(points, k=4, p=np.inf)[0][:, 3]
        for axis in (a, b):
            brute = (np.abs(axis[None, :] - axis[:, None]) < eps[:, None]).sum(axis=1) - 1.0
            brute[eps == 0.0] = 0.0
            np.testing.assert_array_equal(_strict_marginal_counts(axis, eps), brute)


def small_imf_set(arrays):
    n = arrays[0].size
    return ImfSet(
        imfs=[np.asarray(a, dtype=float) for a in arrays],
        residue=np.zeros(n),
    )


class TestScoreImfs:
    def test_near_copy_scores_highest(self):
        rng = np.random.default_rng(55)
        raw = rng.standard_normal(4000)
        jitter = raw * (1.0 + 1e-9) + 1e-9 * rng.standard_normal(4000)
        other = rng.standard_normal(4000)
        imf_set = small_imf_set([jitter, other])
        scores = score_imfs(Signal(raw, 1000.0), imf_set)
        assert scores[0].value_nats > 2.0
        assert scores[0].value_nats == max(s.value_nats for s in scores)

    def test_independent_noise_scores_low(self):
        rng = np.random.default_rng(56)
        raw = rng.standard_normal(4000)
        imf_set = small_imf_set([rng.standard_normal(4000)])
        scores = score_imfs(Signal(raw, 1000.0), imf_set)
        assert scores[0].value_nats < 0.1

    def test_zero_imf_flagged(self):
        rng = np.random.default_rng(57)
        raw = rng.standard_normal(1000)
        imf_set = small_imf_set([raw * 0.5, np.zeros(1000)])
        scores = score_imfs(Signal(raw, 1000.0), imf_set)
        assert scores[1].degenerate
        assert scores[1].value_nats == 0.0

    def test_long_signal_is_strided(self):
        rng = np.random.default_rng(58)
        raw = rng.standard_normal(50_000)
        imf_set = small_imf_set([raw + 0.5 * rng.standard_normal(50_000)])
        scores = score_imfs(Signal(raw, 1000.0), imf_set)  # must stay fast
        assert scores[0].value_nats > 0.5


class TestSelectors:
    def test_select_by_mi_threshold(self):
        # the paper's rule: more than 0.1 nats
        assert mi.MI_THRESHOLD == 0.1
        scores = [
            MiScore(i + 1, v, 3)
            for i, v in enumerate([0.5, 0.3, 0.2, 0.1, 0.05, 0.01])
        ]
        assert select_by_mi(scores) == [1, 2, 3]

    def test_select_by_mi_empty_result(self):
        scores = [MiScore(1, 0.01, 3), MiScore(2, 0.0, 3)]
        assert select_by_mi(scores) == []

    def test_select_by_mi_zero_threshold(self, monkeypatch):
        # the threshold is read when select_by_mi runs, not when it is defined
        monkeypatch.setattr(mi, "MI_THRESHOLD", 0.0)
        scores = [MiScore(1, 0.5, 3), MiScore(2, 0.3, 3), MiScore(3, 0.0, 3)]
        assert select_by_mi(scores) == [1, 2]

    @given(threshold=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_select_by_mi_monotone_in_threshold(self, threshold):
        scores = [MiScore(i + 1, v, 3) for i, v in enumerate([0.7, 0.4, 0.2, 0.05])]
        with mock.patch.object(mi, "MI_THRESHOLD", threshold):
            low = set(select_by_mi(scores))
        with mock.patch.object(mi, "MI_THRESHOLD", threshold + 0.05):
            high = set(select_by_mi(scores))
        assert high <= low

    def test_select_by_kurtosis_prefers_impulsive(self):
        rng = np.random.default_rng(60)
        smooth = rng.standard_normal(2000)
        spiky = rng.standard_normal(2000)
        spiky[::200] += 25.0
        imf_set = small_imf_set([smooth, spiky, rng.standard_normal(2000)])
        assert select_by_kurtosis(imf_set) == [2]

    def test_select_by_kurtosis_single(self):
        rng = np.random.default_rng(61)
        imf_set = small_imf_set([rng.standard_normal(500)])
        assert select_by_kurtosis(imf_set) == [1]

    def test_select_by_kurtosis_tie_breaks_low(self):
        rng = np.random.default_rng(62)
        x = rng.standard_normal(500)
        imf_set = small_imf_set([x, x.copy()])
        assert select_by_kurtosis(imf_set) == [1]

    def test_select_by_kurtosis_all_degenerate(self):
        imf_set = small_imf_set([np.zeros(100), np.full(100, 3.0)])
        assert select_by_kurtosis(imf_set) == []

    def test_select_by_kurtosis_affine_invariance(self):
        rng = np.random.default_rng(63)
        arrays = [rng.standard_normal(1000) for _ in range(4)]
        arrays[2][::100] += 15.0
        base = select_by_kurtosis(small_imf_set(arrays))
        moved = select_by_kurtosis(
            small_imf_set([3.0 * a + 1.0 for a in arrays])
        )
        assert base == moved == [3]


def test_mi_scale_invariance_of_selection():
    rng = np.random.default_rng(64)
    raw = rng.standard_normal(3000)
    partner = 0.8 * raw + 0.6 * rng.standard_normal(3000)
    base = knn_mutual_information(raw, partner, 3)
    scaled = knn_mutual_information(5.0 * raw, 5.0 * partner, 3)
    assert abs(base - scaled) <= 0.02


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-1000, 1000, 1023])
def test_power_of_two_scale_keeps_the_bits(k):
    # A tied pair, so the jitter runs; unscaled, its data range (max - min)
    # overflowed at 2**1023.
    rng = np.random.default_rng(91)
    x = np.round(rng.standard_normal(500), 1)
    y = np.round(x + 0.5 * rng.standard_normal(500), 1)
    x, y = x / 2.0, y / 2.0  # peaks between 1 and 2, so 2**1023 times them is finite
    base = knn_mutual_information(x, y, 3)
    assert knn_mutual_information(np.ldexp(x, k), np.ldexp(y, k), 3) == base


def test_emd_scores_integration():
    # end to end: decompose a two-tone signal, score, select
    t = np.arange(4096) / 4096.0
    raw = np.sin(2 * np.pi * 200 * t) + 0.3 * np.sin(2 * np.pi * 11 * t)
    s = Signal(raw, 4096.0)
    scores = score_imfs(s, emd(s))
    assert select_by_mi(scores)  # the strong tone must be informative
    assert {score.k for score in scores} == {mi.KSG_K} == {3}  # the paper's k


def test_selection_robust_to_subsampling_stride():
    # scoring a long record at the automatic stride must select the same
    # IMFs as scoring a twice-finer view of the same data
    rng = np.random.default_rng(65)
    t = np.arange(32768) / 32768.0
    raw = (
        np.sin(2 * np.pi * 600 * t)
        + 0.5 * np.sin(2 * np.pi * 40 * t)
        + 0.05 * rng.standard_normal(32768)
    )
    s = Signal(raw, 32768.0)
    imf_set = emd(s)
    auto = select_by_mi(score_imfs(s, imf_set))  # stride 2 at this length

    halved = Signal(raw[::2], 16384.0)
    halved_set = ImfSet(
        imfs=[imf[::2] for imf in imf_set.imfs],
        residue=imf_set.residue[::2],
    )
    fine = select_by_mi(score_imfs(halved, halved_set))  # no further stride
    assert auto == fine


def score_bits(scores):
    return [(s.imf_index, s.value_nats.hex(), s.k, s.degenerate) for s in scores]


def report_bits(report):
    return (
        score_bits(report.mi_scores),
        report.selected_indices,
        report.rejected_indices,
        report.combined_signal_digest,
        report.spectrum.amplitudes.tobytes(),
        report.detection,
        report.verdict,
    )


def with_zero_imf(imf_set):
    zero = np.zeros(imf_set.source_length)
    return ImfSet(imf_set.imfs + [zero], imf_set.residue)


class TestConcurrentScoring:
    """score_imfs runs one pool thread per IMF up to the usable CPUs, and at
    least one; the thread count must never change a bit of the scores or of
    a diagnosis."""

    def test_scores_are_bitwise_equal_at_any_thread_count(self, monkeypatch, minute_440):
        imf_set = with_zero_imf(emd(minute_440))
        scorer = mi.knn_mutual_information
        results, callers = {}, {}
        for threads in (1, 2, 3):
            seen = set()

            def spy(*args, seen=seen):
                seen.add(threading.get_ident())
                return scorer(*args)

            # score_imfs must call the module-level name, which tracers patch
            monkeypatch.setattr(mi, "knn_mutual_information", spy)
            monkeypatch.setattr(workers, "usable_cpus", lambda threads=threads: threads)
            results[threads] = score_bits(score_imfs(minute_440, imf_set))
            callers[threads] = seen
        assert results[1][-1][1:] == ((0.0).hex(), 3, True)
        assert results[1] == results[2] == results[3]
        # one usable CPU still scores on the pool: one worker takes every IMF
        main = threading.get_ident()
        assert len(callers[1]) == 1
        assert main not in callers[1] | callers[2] | callers[3]

    def test_no_imfs_score_to_an_empty_list(self):
        # the pool still opens, with one worker, for a decomposition with no IMFs
        ramp = np.linspace(0.0, 1.0, 64)
        assert score_imfs(Signal(ramp, 100.0), ImfSet([], ramp)) == []

    def test_diagnosis_is_bitwise_equal_at_any_thread_count(self, monkeypatch, minute_440):
        cfg = EnsembleConfig(method="npceemd", ensemble_size=2, master_seed=3)
        reports = {}
        for threads in (1, 2, 3):
            monkeypatch.setattr(workers, "usable_cpus", lambda threads=threads: threads)
            reports[threads] = report_bits(diagnose(minute_440, cfg, target_hz=DEFECT_HZ))
        assert reports[1] == reports[2] == reports[3]

    def test_stress_many_threads_fast_switching(self, monkeypatch):
        # more threads than cores and a thread switch every microsecond:
        # every run must still give the serial scores, in IMF order
        rng = np.random.default_rng(90)
        raw = rng.standard_normal(1500)
        arrays = [raw * (0.1 * j) + rng.standard_normal(1500) for j in range(10)]
        arrays[4] = np.zeros(1500)
        imf_set = small_imf_set(arrays)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        reference = score_bits(score_imfs(Signal(raw, 1000.0), imf_set))
        monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
        runs = []

        def hammer():
            deadline = time.monotonic() + 3.0
            while len(runs) < 20 and time.monotonic() < deadline:
                runs.append(score_bits(score_imfs(Signal(raw, 1000.0), imf_set)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=hammer, daemon=True)
            worker.start()
            worker.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert runs and all(run == reference for run in runs)
