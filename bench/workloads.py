"""The three benchmark workloads: inputs, records, digests and output checks.

A workload builds its inputs from the seed in ``setup``, lists one round
of records in ``records``, and checks the outputs of a round in ``check``.
Every round holds the same records, so a run attempts whole rounds and
each round does the same work. Only ``records`` runs inside the timed
region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

import oracles

# degradation-diagnose: specimen minutes of one 500-minute run. The default
# severity law is 1 up to minute 300, then a linear ramp to 10 at minute 500.
HEALTHY_MINUTES = (1, 50, 100, 150, 200, 250, 300)
RAMP_MINUTES = (350, 400, 450)
FAILING_MINUTES = (490, 500)
MINUTES = HEALTHY_MINUTES + RAMP_MINUTES + FAILING_MINUTES
RUN_MINUTES = 500
MI_THRESHOLD = 0.1

# fixture-compare: every method at both SNRs, Ne = 10.
METHODS = ("emd", "eemd", "ceemd", "ceemdan", "npceemd")
SNRS_DB = (0.0, -30.0)
ENSEMBLE_SIZE = 10
# Bars every method must clear at 0 dB (best single-IMF correlation).
TONE_BAR = 0.5
IMPULSE_ENVELOPE_BAR = 0.7
# Methods whose IMFs plus residue must rebuild the input to round-off.
EXACT_METHODS = ("emd", "ceemd", "ceemdan", "npceemd")

# cli-files: the short degradation run written by `simulate`.
CLI_SPECIMENS = 24
CLI_DURATION_S = 0.2
FLAT_SAMPLES = 5000
FLAT_RATE_HZ = 10000.0


def _sha(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = part.tobytes()
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _close(a: np.ndarray, b: np.ndarray, rel: float) -> bool:
    scale = max(float(np.max(np.abs(b))), np.finfo(float).tiny)
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= rel * scale


class DegradationDiagnose:
    """`diagnose` with npceemd Ne=10 on 5000-sample specimens of a run to failure."""

    name = "degradation-diagnose"

    def __init__(self, api, seed: int, workdir: str) -> None:
        self.api = api
        self.seed = seed
        self.params = api.DefectSimParams(seed=seed)
        self.cfg = api.EnsembleConfig(
            method="npceemd", ensemble_size=ENSEMBLE_SIZE, master_seed=seed
        )
        self.target_hz = 1.0 / self.params.T_prime

    def setup(self) -> None:
        run = self.api.gen_degradation_run(self.params, RUN_MINUTES)
        self.specimens = [run.specimen(m) for m in MINUTES]

    def records(self):
        api = self.api
        return [
            (f"minute-{m}", lambda s=s: api.diagnose(s, self.cfg, target_hz=self.target_hz))
            for m, s in zip(MINUTES, self.specimens)
        ]

    def failed(self, label: str, output) -> bool:
        return False

    def digest(self, outputs: dict) -> str:
        parts = []
        for label, r in outputs.items():
            parts += [
                label, r.verdict, r.selected_indices, r.combined_signal_digest,
                np.array([s.value_nats for s in r.mi_scores]), r.spectrum.amplitudes,
                r.detection.peak_ratio,
            ]
        return _sha(*parts)

    def check(self, outputs: dict) -> tuple[list[str], list[str]]:
        errors, notes = [], []
        grid = np.fft.rfftfreq(5000, 1e-4)
        for m, r in zip(MINUTES, outputs.values()):
            n_imfs = len(r.mi_scores)
            if sorted(r.selected_indices + r.rejected_indices) != list(range(1, n_imfs + 1)):
                errors.append(f"minute {m}: selected/rejected do not partition 1..{n_imfs}")
            above = tuple(s.imf_index for s in r.mi_scores if s.value_nats > MI_THRESHOLD)
            if r.selected_indices != above:
                errors.append(f"minute {m}: selection {r.selected_indices} != MI > 0.1 {above}")
            if not np.array_equal(r.spectrum.frequencies_hz, grid) or r.spectrum.amplitudes[0] != 0.0:
                errors.append(f"minute {m}: spectrum grid or DC bin wrong")
            if m in HEALTHY_MINUTES and r.verdict != "NO_DEFECT_EVIDENCE":
                errors.append(f"minute {m} (severity 1): verdict {r.verdict}")
            if m in FAILING_MINUTES and r.verdict != "DEFECT_CONFIRMED":
                errors.append(f"minute {m}: verdict {r.verdict}, peak ratio {r.detection.peak_ratio:.2f}")
        ramp = [r for m, r in zip(MINUTES, outputs.values()) if m in RAMP_MINUTES]
        confirmed = sum(r.verdict == "DEFECT_CONFIRMED" for r in ramp)
        notes.append(f"ramp minutes {RAMP_MINUTES}: {confirmed} of {len(ramp)} confirmed")
        # One specimen per run, chosen by the seed, against the oracles.
        pick = self.seed % len(MINUTES)
        errors += self._check_oracles(MINUTES[pick], self.specimens[pick], list(outputs.values())[pick])
        notes.append(f"MI and spectrum oracle checked on minute {MINUTES[pick]}")
        return errors, notes

    def _check_oracles(self, minute: int, specimen, report) -> list[str]:
        errors = []
        imf_set = self.api.decompose(specimen, self.cfg)
        x = specimen.samples
        for score, imf in zip(report.mi_scores, imf_set.imfs):
            expected = oracles.ksg_mutual_information(x, imf, score.k)
            if abs(expected - score.value_nats) > 1e-9:
                errors.append(
                    f"minute {minute} IMF {score.imf_index}: MI {score.value_nats!r} != oracle {expected!r}"
                )
        combined = np.zeros(x.size)
        for index in report.selected_indices:
            combined += imf_set.imfs[index - 1]
        if hashlib.sha256(combined.tobytes()).hexdigest() != report.combined_signal_digest:
            errors.append(f"minute {minute}: re-decomposed selection differs from the report")
        if report.selected_indices and not _close(
            report.spectrum.amplitudes, oracles.envelope_spectrum(combined), 1e-9
        ):
            errors.append(f"minute {minute}: envelope spectrum differs from the numpy FFT oracle")
        return errors


class FixtureCompare:
    """`decompose` + `separation_scores` per method on the 32768-sample fixture."""

    name = "fixture-compare"

    def __init__(self, api, seed: int, workdir: str) -> None:
        self.api = api
        self.seed = seed

    def setup(self) -> None:
        api = self.api
        self.signals = {snr: api.gen_combined(snr, self.seed) for snr in SNRS_DB}
        self.components = [
            api.Component("tone", api.gen_tone().samples),
            api.Component("impulses", api.gen_impulses().samples, impulsive=True),
        ]

    def _config(self, method: str):
        return self.api.EnsembleConfig(
            method=method, ensemble_size=ENSEMBLE_SIZE, master_seed=self.seed
        )

    def records(self):
        api = self.api

        def record(x, cfg):
            imf_set = api.decompose(x, cfg)
            return imf_set, api.separation_scores(imf_set, self.components)

        return [
            (f"{method}@{snr:g}dB", lambda x=x, cfg=self._config(method): record(x, cfg))
            for snr, x in self.signals.items()
            for method in METHODS
        ]

    def failed(self, label: str, output) -> bool:
        return False

    def digest(self, outputs: dict) -> str:
        parts = []
        for label, (imf_set, scores) in outputs.items():
            parts += [label, imf_set.residue, *imf_set.imfs]
            parts += [(s.best_imf_index, s.correlation) for s in scores]
        return _sha(*parts)

    def check(self, outputs: dict) -> tuple[list[str], list[str]]:
        errors, notes = [], []
        labels = iter(outputs)
        for snr, x in self.signals.items():
            for method in METHODS:
                label = next(labels)
                imf_set, scores = outputs[label]
                errors += self._check_one(label, method, snr, x.samples, imf_set, scores)
                notes.append(
                    f"{label}: {imf_set.n_imfs} IMFs, tone r {scores[0].correlation:.3f}, "
                    f"impulse envelope r {scores[1].correlation:.3f}"
                )
        return errors, notes

    def _check_one(self, label, method, snr, x, imf_set, scores) -> list[str]:
        errors = []
        rebuilt = np.sum(np.vstack(imf_set.imfs + [imf_set.residue]), axis=0)
        peak = float(np.max(np.abs(x)))
        if method in EXACT_METHODS:
            if float(np.max(np.abs(rebuilt - x))) > 1e-9 * peak:
                errors.append(f"{label}: IMFs + residue do not rebuild the input")
        else:
            # EEMD keeps the mean of Ne white draws: std 0.2 std(x)/sqrt(Ne).
            ratio = float(np.std(rebuilt - x)) / float(np.std(x))
            expected = 0.2 / np.sqrt(ENSEMBLE_SIZE)
            if abs(ratio / expected - 1.0) > 0.05:
                errors.append(f"{label}: residual noise {ratio:.4f} std(x), expected {expected:.4f}")
        if imf_set.n_imfs > int(np.floor(np.log2(x.size))):
            errors.append(f"{label}: {imf_set.n_imfs} IMFs exceed floor(log2 N)")
        for comp, score in zip(self.components, scores):
            index, r = oracles.best_correlation(imf_set.imfs, comp.samples, comp.impulsive)
            if index != score.best_imf_index or abs(r - score.correlation) > 1e-9:
                errors.append(
                    f"{label} {comp.name}: separation score ({score.best_imf_index}, "
                    f"{score.correlation!r}) != oracle ({index}, {r!r})"
                )
        if snr == 0.0:
            bars = (TONE_BAR, IMPULSE_ENVELOPE_BAR)
            for score, bar in zip(scores, bars):
                if not score.correlation > bar:
                    errors.append(f"{label} {score.component_name}: r {score.correlation:.3f} <= {bar}")
        return errors


class CliFiles:
    """In-process `npceemd.cli.main` calls that read and write CSV files."""

    name = "cli-files"

    def __init__(self, api, seed: int, workdir: str) -> None:
        self.api = api
        self.seed = seed
        self.inputs = os.path.join(workdir, "inputs")
        self.outputs = os.path.join(workdir, "outputs")
        self.stderr: dict[str, str] = {}
        self.tracer = None

    def setup(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)
        seed = str(self.seed)
        self._main(["simulate", "combined-noisy", "--seed", seed, "--snr-db", "-30", "--out", self.inputs])
        self._main(["simulate", "defect", "--seed", seed, "--severity", "10", "--out", self.inputs])
        times = np.arange(FLAT_SAMPLES) / FLAT_RATE_HZ
        rows = "".join(f"{t!r},1.0\n" for t in times.tolist())
        with open(os.path.join(self.inputs, "flat.csv"), "w") as fh:
            fh.write("time,value\n" + rows)

    def _main(self, argv: list[str], label: str = "setup") -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.api.cli.main(argv)
        self.stderr[label] = err.getvalue().strip()
        return code

    def _argv(self) -> list[tuple[str, list[str], int]]:
        """(label, argv without --out, expected exit code) for one round."""
        seed = str(self.seed)
        inputs = self.inputs
        return [
            ("simulate-noisy", ["simulate", "combined-noisy", "--seed", seed, "--snr-db", "-30"], 0),
            ("simulate-run", ["simulate", "degradation-run", "--seed", seed,
                              "--specimens", str(CLI_SPECIMENS), "--duration", str(CLI_DURATION_S)], 0),
            ("decompose-emd", ["decompose", os.path.join(inputs, "combined_noisy.csv"),
                               "--method", "emd", "--verify"], 0),
            ("diagnose-emd", ["diagnose", os.path.join(inputs, "defect.csv"), "--method", "emd",
                              "--target-hz", repr(1.0 / 0.015)], 0),
            # Documented outcome: exit 3, INCONCLUSIVE_EMPTY_SELECTION.
            ("diagnose-flat", ["diagnose", os.path.join(inputs, "flat.csv"), "--method", "emd"], 3),
        ]

    def records(self):
        self.expected = {}
        records = []
        for label, argv, code in self._argv():
            self.expected[label] = code
            full = argv + ["--out", os.path.join(self.outputs, label)]
            records.append((label, lambda full=full, label=label: self._main(full, label)))
        return records

    def prepare(self, label: str) -> None:
        shutil.rmtree(os.path.join(self.outputs, label), ignore_errors=True)

    def finish(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.counts["cli.bytes_written"] += sum(
                os.path.getsize(p) for p in self._files(os.path.join(self.outputs, label))
            )

    def failed(self, label: str, output) -> bool:
        return output != self.expected[label]

    @staticmethod
    def _files(directory: str) -> list[str]:
        if not os.path.isdir(directory):
            return []
        return sorted(os.path.join(directory, f) for f in os.listdir(directory))

    def _contents(self, directory: str) -> list[tuple[str, bytes]]:
        """(file name, bytes) of every file in a directory, sorted by name."""
        contents = []
        for path in self._files(directory):
            with open(path, "rb") as fh:
                contents.append((os.path.basename(path), fh.read()))
        return contents

    def digest(self, outputs: dict) -> str:
        parts = []
        for label, code in outputs.items():
            parts.append((label, code))
            for name, data in self._contents(os.path.join(self.outputs, label)):
                parts += [name, data]
        return _sha(*parts)

    def check(self, outputs: dict) -> tuple[list[str], list[str]]:
        errors, notes = [], []
        out = self.outputs
        for label in outputs:
            for path in self._files(os.path.join(out, label)):
                with open(path) as fh:
                    if path.endswith(".json"):
                        ok = next(iter(json.load(fh)), None) == "manifest"
                    else:
                        ok = fh.readline().startswith("# manifest: ")
                if not ok:
                    errors.append(f"{path}: does not start with its manifest")
        errors += self._check_simulate(out)
        errors += self._check_decompose(out)
        errors += self._check_diagnose(out)
        flat = outputs["diagnose-flat"]
        if flat == 3:
            with open(os.path.join(out, "diagnose-flat", "report.json")) as fh:
                verdict = json.load(fh)["report"]["verdict"]
            if verdict != "INCONCLUSIVE_EMPTY_SELECTION":
                errors.append(f"flat record: exit 3 with verdict {verdict}")
        else:
            notes.append(f"diagnose-flat failed: exit {flat}, stderr {self.stderr['diagnose-flat']!r}")
        # One command re-run into a second directory must give the same bytes.
        label, argv, _ = self._argv()[3]
        again = os.path.join(out, label + "-rerun")
        shutil.rmtree(again, ignore_errors=True)
        self._main(argv + ["--out", again])
        if self._contents(os.path.join(out, label)) != self._contents(again):
            errors.append(f"{label}: re-run into a second directory gave different files")
        return errors, notes

    @staticmethod
    def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
        with open(path) as fh:
            lines = fh.read().splitlines()
        header = lines[1].split(",")
        return header, np.loadtxt(lines[2:], delimiter=",", ndmin=2)

    def _check_simulate(self, out: str) -> list[str]:
        api, errors = self.api, []
        expected = api.gen_combined(-30.0, self.seed)
        header, data = self._read_csv(os.path.join(out, "simulate-noisy", "combined_noisy.csv"))
        if header != ["time", "value"] or not (
            np.array_equal(data[:, 0], expected.times()) and np.array_equal(data[:, 1], expected.samples)
        ):
            errors.append("simulate combined-noisy: CSV differs from gen_combined")
        params = api.DefectSimParams(duration_s=CLI_DURATION_S, seed=self.seed)
        run = api.gen_degradation_run(params, CLI_SPECIMENS)
        for m, s in enumerate(run.specimens, start=1):
            _, data = self._read_csv(os.path.join(out, "simulate-run", f"specimen_{m:04d}.csv"))
            if not np.array_equal(data[:, 1], s.samples):
                errors.append(f"simulate degradation-run: specimen {m} differs from gen_degradation_run")
        _, trend = self._read_csv(os.path.join(out, "simulate-run", "rms_trend.csv"))
        rms = np.array([np.sqrt(np.mean(np.square(s.samples))) for s in run.specimens])
        if not _close(trend[:, 1], rms, 1e-12):
            errors.append("simulate degradation-run: rms_trend.csv differs from the specimens' RMS")
        return errors

    def _check_decompose(self, out: str) -> list[str]:
        _, source = self._read_csv(os.path.join(self.inputs, "combined_noisy.csv"))
        header, imfs = self._read_csv(os.path.join(out, "decompose-emd", "imfs.csv"))
        if header[-1] != "residue" or imfs.shape[0] != source.shape[0]:
            return ["decompose: imfs.csv has the wrong shape"]
        if not _close(imfs.sum(axis=1), source[:, 1], 1e-9):
            return ["decompose: imfs.csv columns do not sum to the input"]
        return []

    def _check_diagnose(self, out: str) -> list[str]:
        errors = []
        base = os.path.join(out, "diagnose-emd")
        with open(os.path.join(base, "report.json")) as fh:
            report = json.load(fh)["report"]
        _, scores = self._read_csv(os.path.join(base, "mi_scores.csv"))
        n = scores.shape[0]
        selected = sorted(report["selected_indices"])
        if sorted(selected + report["rejected_indices"]) != list(range(1, n + 1)):
            errors.append("diagnose: selected/rejected do not partition the IMFs")
        if selected != [int(i) for i, v in zip(scores[:, 0], scores[:, 1]) if v > MI_THRESHOLD]:
            errors.append("diagnose: selection is not the IMFs with MI > 0.1")
        _, spectrum = self._read_csv(os.path.join(base, "spectrum.csv"))
        if not _close(spectrum[:, 0], np.fft.rfftfreq(5000, 1e-4), 1e-9) or spectrum[0, 1] != 0.0:
            errors.append("diagnose: spectrum grid or DC bin wrong")
        found = report["detection"]["found"]
        if report["verdict"] != ("DEFECT_CONFIRMED" if found else "NO_DEFECT_EVIDENCE"):
            errors.append(f"diagnose: verdict {report['verdict']} disagrees with the peak test")
        return errors


WORKLOADS = {w.name: w for w in (DegradationDiagnose, FixtureCompare, CliFiles)}
