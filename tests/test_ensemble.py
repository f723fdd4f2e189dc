import tracemalloc

import numpy as np
import pytest

from npceemd import EnsembleConfig, Signal, emd
from npceemd import ensemble, workers
from npceemd.emd import ImfSet, SiftConfig, mode_extrema, sift_mode, take_modes
from npceemd.ensemble import METHODS, decompose
from npceemd.signals import _from_unit_peak, _to_unit_peak
from conftest import pearson


def two_tone_signal(n=2048, fs=2048.0) -> Signal:
    t = np.arange(n) / fs
    return Signal(
        np.sin(2 * np.pi * 160.0 * t) + 2.0 * np.sin(2 * np.pi * 9.0 * t), fs
    )


def max_imf_deviation(a, b) -> float:
    worst = 0.0
    for x, y in zip(a.imfs, b.imfs):
        worst = max(worst, float(np.max(np.abs(x - y))))
    common = min(a.n_imfs, b.n_imfs)
    for extra in a.imfs[common:] + b.imfs[common:]:
        worst = max(worst, float(np.max(np.abs(extra))))
    return worst


def cfg_for(method: str, **kw) -> EnsembleConfig:
    defaults = dict(method=method, ensemble_size=10, master_seed=0)
    defaults.update(kw)
    return EnsembleConfig(**defaults)


def spy_on_trials(monkeypatch):
    """Record each (trial, fractional, noise) that ``_trial_noise`` gives
    and the samples of each signal the ensemble hands to ``emd``. The
    trials run in the caller, where the spies are, not on workers."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    noises, inputs = [], []
    trial_noise, run_emd = ensemble._trial_noise, ensemble.emd

    def noise_spy(cfg, n, trial, fractional):
        w = trial_noise(cfg, n, trial, fractional)
        noises.append((trial, fractional, w))
        return w

    def emd_spy(s, cfg=None):
        inputs.append(s.samples)
        return run_emd(s, cfg)

    monkeypatch.setattr(ensemble, "_trial_noise", noise_spy)
    monkeypatch.setattr(ensemble, "emd", emd_spy)
    return noises, inputs


class TestZeroNoiseDegeneracy:
    # with vanishing injected noise every ensemble method collapses to emd
    @pytest.mark.parametrize("method", ["eemd", "ceemd", "ceemdan"])
    def test_collapses_to_emd(self, method):
        s = two_tone_signal()
        plain = emd(s)
        tiny = decompose(s, cfg_for(method, ensemble_size=2, noise_scale=1e-8))
        scale = float(np.max(np.abs(s.samples)))
        assert max_imf_deviation(plain, tiny) <= 1e-6 * scale
        assert np.max(np.abs(plain.residue - tiny.residue)) <= 1e-6 * scale


class TestDeterminism:
    @pytest.mark.parametrize("method", ["eemd", "ceemd", "ceemdan", "npceemd"])
    def test_bit_identical_reruns(self, method):
        s = two_tone_signal()
        cfg = cfg_for(method, ensemble_size=3)
        first = decompose(s, cfg)
        second = decompose(s, cfg)
        assert first.n_imfs == second.n_imfs
        for x, y in zip(first.imfs, second.imfs):
            assert np.array_equal(x, y)
        assert np.array_equal(first.residue, second.residue)

    def test_master_seed_changes_output(self):
        s = two_tone_signal()
        a = decompose(s, cfg_for("eemd", ensemble_size=3, master_seed=1))
        b = decompose(s, cfg_for("eemd", ensemble_size=3, master_seed=2))
        assert any(not np.array_equal(x, y) for x, y in zip(a.imfs, b.imfs))


class TestCeemd:
    def test_pair_cancellation_beats_eemd_reconstruction(self):
        # plus/minus pairs cancel the injected noise in the ensemble mean,
        # so ceemd reconstructs far better than eemd at the same size
        s = two_tone_signal()
        e = decompose(s, cfg_for("eemd", ensemble_size=4))
        c = decompose(s, cfg_for("ceemd", ensemble_size=4))
        err_e = np.max(np.abs(e.reconstruct() - s.samples))
        err_c = np.max(np.abs(c.reconstruct() - s.samples))
        assert err_c < 0.1 * err_e

    def test_trial_count_is_doubled(self, monkeypatch):
        # 2*Ne trials over Ne noise realizations, run in the order j+, j-
        s = two_tone_signal(n=512)
        noises, inputs = spy_on_trials(monkeypatch)
        for method in ("ceemd", "npceemd"):
            noises.clear()
            inputs.clear()
            decompose(s, cfg_for(method, ensemble_size=3))
            assert [j for j, _, _ in noises] == [0, 1, 2]
            assert all(frac == (method == "npceemd") for _, frac, _ in noises)
            assert len(inputs) == 6
            for i, x in enumerate(inputs):
                sign = 1.0 if i % 2 == 0 else -1.0
                assert sign * np.dot(x - s.samples, noises[i // 2][2]) > 0


class TestEemd:
    def test_one_trial_per_member(self, monkeypatch):
        s = two_tone_signal(n=512)
        noises, inputs = spy_on_trials(monkeypatch)
        decompose(s, cfg_for("eemd", ensemble_size=3))
        assert [j for j, _, _ in noises] == [0, 1, 2]
        assert not any(fractional for _, fractional, _ in noises)
        assert len(inputs) == 3
        for x, (_, _, w) in zip(inputs, noises):
            assert np.dot(x - s.samples, w) > 0


def two_phase_ceemdan(s: Signal, cfg: EnsembleConfig) -> ImfSet:
    """CEEMDAN as two phases: every member's white noise fully decomposed
    by ``emd`` first, then the stages, each reading mode k of each noise
    EMD. The reference for the stage-wise noise EMDs of ``_ceemdan``."""
    x, e = _to_unit_peak(s.samples)
    noise_modes = [
        emd(Signal(ensemble._trial_noise(cfg, x.size, j, False), s.sample_rate_hz), cfg.sift).imfs
        for j in range(cfg.ensemble_size)
    ]

    def stage(residue, _, k):
        eps = cfg.noise_scale * np.std(residue)
        total = np.zeros(x.size)
        for modes in noise_modes:
            perturbed = residue + eps * modes[k] if k < len(modes) else residue
            extrema = mode_extrema(perturbed)
            total += perturbed if extrema is None else sift_mode(perturbed, extrema, cfg.sift)
        return total / cfg.ensemble_size

    out = take_modes(x.copy(), cfg.sift.mode_cap(x.size), stage)
    _from_unit_peak(e, *out.imfs, out.residue)
    return out


class TestCeemdan:
    def test_one_noise_decomposition_per_member(self, monkeypatch):
        # one white noise draw per member, in member order; the stages
        # advance its EMD one mode each, without going through emd
        s = two_tone_signal(n=512)
        noises, inputs = spy_on_trials(monkeypatch)
        decompose(s, cfg_for("ceemdan", ensemble_size=3))
        assert [j for j, _, _ in noises] == [0, 1, 2]
        assert not any(fractional for _, fractional, _ in noises)
        assert inputs == []

    @pytest.mark.parametrize("record", [
        "two-tone", "white", "specimen-2", "specimen-5", "short", "2**600", "1e-200",
    ])
    def test_same_bits_as_the_two_phase_algorithm(self, record, minute_440, monkeypatch):
        # in the caller; tests/test_workers.py checks workers give the same bits
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        tones, k = two_tone_signal(), np.arange(16)
        s = {
            "two-tone": tones,
            "white": Signal(np.random.default_rng(12).standard_normal(2048), 1000.0),
            "specimen-2": minute_440,
            "specimen-5": minute_440,
            "short": Signal(np.sin(0.9 * k) + np.sin(0.05 * k), 1.0),
            "2**600": Signal(np.ldexp(tones.samples, 600), tones.sample_rate_hz),
            "1e-200": Signal(1e-200 * tones.samples, tones.sample_rate_hz),
        }[record]
        cfg = cfg_for("ceemdan", ensemble_size=3)
        if record.startswith("specimen"):
            cfg = cfg_for("ceemdan", ensemble_size=3, sift=SiftConfig(max_imfs=int(record[-1])))
        if record == "short":
            cfg = cfg_for("ceemdan", ensemble_size=4)
        out, ref = decompose(s, cfg), two_phase_ceemdan(s, cfg)
        if record == "short":
            # every noise EMD ends before the signal's third and last
            # stage, and the fourth member's before the second
            counts = [
                emd(Signal(ensemble._trial_noise(cfg, 16, j, False), 1.0)).n_imfs
                for j in range(4)
            ]
            assert (counts, out.n_imfs) == ([2, 2, 2, 1], 3)
        assert out.n_imfs == ref.n_imfs
        for a, b in zip(out.imfs + [out.residue], ref.imfs + [ref.residue]):
            assert np.array_equal(a, b)

    def test_reconstruction_is_telescoping(self):
        rng = np.random.default_rng(12)
        s = Signal(rng.standard_normal(2048), 1000.0)
        out = decompose(s, cfg_for("ceemdan", ensemble_size=4))
        err = np.max(np.abs(out.reconstruct() - s.samples))
        assert err <= 1e-6 * np.max(np.abs(s.samples))

    def test_tone_recovery(self):
        # CEEMDAN smears low frequencies more than the paired methods, so
        # the slow-tone bound here is looser than npceemd's below
        s = two_tone_signal()
        out = decompose(s, cfg_for("ceemdan", ensemble_size=4))
        slow = 2.0 * np.sin(2 * np.pi * 9.0 * np.arange(2048) / 2048.0)
        best = max(abs(pearson(imf, slow)) for imf in out.imfs)
        assert best >= 0.9


class TestNpceemd:
    def test_uses_hurst_parameter(self):
        s = two_tone_signal()
        low = decompose(s, cfg_for("npceemd", ensemble_size=2, hurst=0.1))
        high = decompose(s, cfg_for("npceemd", ensemble_size=2, hurst=0.9))
        assert any(not np.array_equal(x, y) for x, y in zip(low.imfs, high.imfs))

    def test_two_tone_separation(self):
        s = two_tone_signal()
        out = decompose(s, cfg_for("npceemd"))
        t = np.arange(2048) / 2048.0
        fast = np.sin(2 * np.pi * 160.0 * t)
        slow = 2.0 * np.sin(2 * np.pi * 9.0 * t)
        best_fast = max(abs(pearson(imf, fast)) for imf in out.imfs)
        best_slow = max(abs(pearson(imf, slow)) for imf in out.imfs)
        assert best_fast >= 0.95 and best_slow >= 0.95


@pytest.fixture(scope="module")
def clean_battery(clean_combined, tone_signal, impulse_signal):
    """Ensemble decompositions of the clean combined fixture, plus the
    best single-IMF correlations against each ground-truth component."""
    from npceemd.pipeline import Component, separation_scores

    components = [
        Component("tone", tone_signal.samples),
        Component("impulses", impulse_signal.samples, impulsive=True),
    ]
    out = {}
    for method, size in (
        ("eemd", 10), ("eemd", 100), ("ceemd", 10),
        ("ceemdan", 10), ("npceemd", 10),
    ):
        cfg = cfg_for(method, ensemble_size=size)
        scores = separation_scores(decompose(clean_combined, cfg), components)
        out[(method, size)] = {s.component_name: s for s in scores}
    return out


class TestCleanFixtureRecovery:
    def test_eemd_large_ensemble_recovers_tone(self, clean_battery):
        assert clean_battery[("eemd", 100)]["tone"].correlation >= 0.95

    def test_eemd_small_ensemble_is_strictly_worse(self, clean_battery):
        small = clean_battery[("eemd", 10)]["tone"].correlation
        large = clean_battery[("eemd", 100)]["tone"].correlation
        assert small < large

    def test_ceemd_recovers_both_components(self, clean_battery):
        scores = clean_battery[("ceemd", 10)]
        assert scores["tone"].correlation >= 0.9
        assert scores["impulses"].correlation >= 0.9

    def test_ceemdan_smears_the_tone_where_npceemd_does_not(self, clean_battery):
        assert clean_battery[("ceemdan", 10)]["tone"].correlation < 0.95
        assert clean_battery[("npceemd", 10)]["tone"].correlation >= 0.95

    def test_npceemd_lowest_tone_leakage(self, clean_battery):
        ours = clean_battery[("npceemd", 10)]["tone"].leakage
        assert ours < clean_battery[("ceemdan", 10)]["tone"].leakage
        assert ours < clean_battery[("eemd", 10)]["tone"].leakage


class TestPairSymmetry:
    def test_sign_convention_is_irrelevant(self, monkeypatch):
        # the +/- trial set is identical as a set, so globally negating the
        # injected noise (trials run j-, j+) cannot change the averaged output
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # the patch stays in the caller
        s = two_tone_signal()
        cfg = cfg_for("ceemd", ensemble_size=2)
        plus_first = decompose(s, cfg)
        trial_noise = ensemble._trial_noise
        monkeypatch.setattr(
            ensemble, "_trial_noise", lambda *args, **kw: -trial_noise(*args, **kw)
        )
        minus_first = decompose(s, cfg)
        assert plus_first.n_imfs == minus_first.n_imfs
        for a, b in zip(plus_first.imfs, minus_first.imfs):
            assert np.allclose(a, b, atol=1e-12)
        assert np.allclose(plus_first.residue, minus_first.residue, atol=1e-12)


class TestAlignment:
    def test_differing_imf_counts_pad_with_zeros(self, monkeypatch):
        # a trial with fewer modes adds nothing to the later sums, in either
        # order, and the output has as many modes as the longest trial. The
        # record peaks in [0.5, 1), so decompose's unit-peak scale is 2**0
        # and the mocked unit-scale trials come back unscaled
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # the mock stays in the caller
        n = 64
        ones = np.ones(n)
        s = Signal(np.arange(n) / n, 10.0)
        for order in ("short-long", "long-short"):
            short = ImfSet([ones.copy()], np.zeros(n))
            long = ImfSet([ones.copy(), 2.0 * ones], np.ones(n))
            trials = iter([short, long] if order == "short-long" else [long, short])
            monkeypatch.setattr(ensemble, "emd", lambda s, cfg=None: next(trials))
            out = decompose(s, cfg_for("eemd", ensemble_size=2))
            assert out.n_imfs == 2, order
            assert np.array_equal(out.imfs[0], ones), order
            assert np.array_equal(out.imfs[1], ones), order  # (0 + 2) / 2
            assert np.array_equal(out.residue, 0.5 * ones), order


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [600, -600])
@pytest.mark.parametrize("method", METHODS)
def test_power_of_two_scaling_is_exact(method, k):
    # 2**k is exact, so every stage (noise scale, sifting, averaging) must
    # give the scaled decomposition bit for bit, without overflowing or
    # underflowing the noise scale to zero
    s = two_tone_signal(n=512)
    cfg = cfg_for(method, ensemble_size=2)
    base = decompose(s, cfg)
    scaled = decompose(Signal(np.ldexp(s.samples, k), s.sample_rate_hz), cfg)
    assert scaled.n_imfs == base.n_imfs
    for a, b in zip(scaled.imfs + [scaled.residue], base.imfs + [base.residue]):
        assert np.array_equal(a, np.ldexp(b, k))


@pytest.mark.parametrize("scale", [1.0, 1e200])
@pytest.mark.parametrize("method", ["ceemd", "ceemdan", "npceemd"])
def test_modes_sum_back_to_the_record(method, scale, minute_440):
    # The paired trials' noise cancels in the mean and CEEMDAN's modes
    # telescope, so the modes and residue sum to the record to round-off
    # (3.6e-16 at most here), at any amplitude
    records = (
        two_tone_signal(),
        minute_440,
        Signal(np.random.default_rng(5).standard_normal(2048), 1000.0),
    )
    for record in records:
        s = Signal(scale * record.samples, record.sample_rate_hz)
        out = decompose(s, cfg_for(method, ensemble_size=2))
        peak = np.max(np.abs(s.samples))
        assert np.max(np.abs(out.reconstruct() - s.samples)) <= 1e-13 * peak


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", METHODS)
def test_extreme_amplitude_gives_finite_modes(method, minute_440):
    # At a peak of 2**1022 or 2**1023 the spline terms of a sift overflow,
    # and near 2**-1000 its terms sink into subnormals, unless sifting runs
    # on a unit-peak copy: the modes must come back finite and be the
    # unit-peak decomposition scaled exactly
    x = minute_440.samples / np.max(np.abs(minute_440.samples))
    cfg = cfg_for(method, ensemble_size=2)
    base = decompose(Signal(x, minute_440.sample_rate_hz), cfg)
    for k in (-1010, -997, 1022, 1023):
        big = decompose(Signal(np.ldexp(x, k), minute_440.sample_rate_hz), cfg)
        assert big.n_imfs == base.n_imfs
        for a, b in zip(big.imfs + [big.residue], base.imfs + [base.residue]):
            assert np.all(np.isfinite(a))
            assert np.array_equal(a, np.ldexp(b, k))


@pytest.mark.parametrize("method", ["ceemdan", "npceemd"])
def test_in_caller_peak_memory_stays_within_a_few_output_sizes(method, monkeypatch):
    # Beyond its output, ceemdan holds one noise residue per member and
    # npceemd the running sums and one realization's trials. When ceemdan
    # held every member's full noise EMD and npceemd copied its sums to
    # scale them, the traced peaks here were 11.6 and 5.5 output sizes
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    n = 1 << 15
    s = Signal(np.random.default_rng(0).standard_normal(n), 1000.0)
    tracemalloc.start()
    try:
        out = decompose(s, cfg_for(method))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * (out.n_imfs + 1) * n * 8


class TestConfigValidation:
    def test_method_names(self):
        with pytest.raises(ValueError):
            EnsembleConfig(method="vmd")

    def test_bounds(self):
        with pytest.raises(ValueError):
            EnsembleConfig(ensemble_size=0)
        with pytest.raises(ValueError):
            EnsembleConfig(noise_scale=0.0)
        with pytest.raises(ValueError, match="noise_scale"):
            EnsembleConfig(noise_scale=float("inf"))
        with pytest.raises(ValueError):
            EnsembleConfig(hurst=1.0)
        # a fractional seed used to run as its integer part, a negative one
        # failed inside numpy, and a fractional size raised TypeError
        for seed in (1.5, -1, 2.0, True):
            with pytest.raises(ValueError, match="master_seed"):
                EnsembleConfig(master_seed=seed)
        for size in (2.5, 2.0, 0, -3):
            with pytest.raises(ValueError, match="ensemble_size"):
                EnsembleConfig(ensemble_size=size)
        assert EnsembleConfig(master_seed=np.int64(3), ensemble_size=np.int64(2)).master_seed == 3

    def test_emd_dispatch(self):
        s = two_tone_signal()
        cfg = EnsembleConfig(method="emd", sift=SiftConfig(max_imfs=4))
        out = decompose(s, cfg)
        assert out.n_imfs <= 4
