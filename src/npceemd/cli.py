"""Command-line front end: simulate fixtures, decompose, diagnose, compare.

Every output file starts with a manifest header recording the command,
config snapshot, input digest, tool version, and seed, so any artifact can
be reproduced byte-for-byte from its own header.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__, csvrows, workers
from .csvrows import CSV_BLOCK_ROWS
from .emd import SiftConfig
from .ensemble import METHODS, EnsembleConfig, decompose
from .mi import KSG_K, MI_THRESHOLD
from .pipeline import SELECTORS, VERDICT_INCONCLUSIVE, Component, diagnose, separation_scores
from .signals import Signal, rms
from .simulate import (
    DefectSimParams,
    DegradationRun,
    default_severity_law,
    gen_combined,
    gen_defect_signal,
    gen_degradation_run,
    gen_impulses,
    gen_tone,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

MAX_GRID_POINTS = 1000

COMPARE_COLUMNS = (
    "method", "hurst", "ensemble", "n_imfs",
    "tone_corr", "tone_leakage", "impulse_env_corr", "impulse_leakage",
)


class ParseError(ValueError):
    """Input file could not be parsed; the message names the line."""


class InternalCheckFailed(RuntimeError):
    """A module invariant was violated at runtime."""


def _manifest(args: argparse.Namespace, config: dict, input_digest: str) -> dict:
    """Reproducibility header serialized into every output artifact."""
    return {
        "command": args.command,
        "config": config,
        "input_digest": input_digest,
        "tool_version": __version__,
        "seed": args.seed,
    }


def _manifest_line(manifest: dict) -> str:
    return f"# manifest: {json.dumps(manifest, sort_keys=True)}"


@contextlib.contextmanager
def _atomic_file(path: str) -> Iterator[IO[str]]:
    """A text file that replaces ``path`` whole if the block ends without
    an error, and is removed if it raises.

    It is created with mode 0o666 less the umask, as ``open(path, "w")``
    creates a file. ``tempfile.mkstemp`` would give 0o600 whatever the
    umask, and ``os.replace`` keeps the mode.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, lines: Iterable[str]) -> None:
    with _atomic_file(path) as fh:
        fh.writelines(f"{line}\n" for line in lines)


# Fewest cells of a table of float64 arrays that _write_csv formats in
# helper processes beside the caller. Measured on a 2-vCPU VM as sets of
# 21 writes alternating with the caller alone: the split won 0 and 3 of
# 21 at 131 072 cells, where a new helper often ran on the caller's CPU;
# 4 to 20 of 21 at 163 840 to 229 376; 17 and 18 of 21 at 262 144, and
# 13 and 21 of 21 at 393 216. At 65 536 cells it lost 15 of 15 (44 -> 61 ms).
HELPER_CELLS = 1 << 18


def _cells(column: Sequence, start: int, stop: int) -> list[str]:
    """The text of rows ``start:stop`` of one column: ``csvrows.cells`` of
    an array's values, and ``str`` of each value of any other column
    (names, integers, preformatted text)."""
    if isinstance(column, np.ndarray):
        return csvrows.cells(column[start:stop].tolist())
    return [str(v) for v in column[start:stop]]


def _blocks(columns: Sequence[Sequence], start: int, stop: int) -> Iterator[str]:
    """The lines of rows ``start:stop``, ``CSV_BLOCK_ROWS`` rows at a time."""
    for i in range(start, stop, CSV_BLOCK_ROWS):
        yield csvrows.rows_text([_cells(c, i, min(i + CSV_BLOCK_ROWS, stop)) for c in columns])


def _runs(columns: Sequence[Sequence]) -> list[int]:
    """The row bounds of the runs a table is formatted in, one run per
    process: whole blocks, up to one run per usable CPU for a table of at
    least HELPER_CELLS cells that are all float64 arrays, and else one run."""
    n = len(columns[0]) if columns else 0
    blocks = -(-n // CSV_BLOCK_ROWS)
    count = 1
    if n * len(columns) >= HELPER_CELLS and sys.executable and all(
        isinstance(c, np.ndarray) and c.ndim == 1 and c.dtype == np.float64 for c in columns
    ):
        count = min(workers.usable_cpus(), blocks)
    return [blocks * j // count * CSV_BLOCK_ROWS for j in range(count)] + [n]


# The helper program, csvrows.py, which a bare interpreter runs.
_CSVROWS = os.path.abspath(csvrows.__file__)


def _start_helper(
    columns: Sequence[np.ndarray], start: int, stop: int, directory: str
) -> tuple[subprocess.Popen, IO[bytes]]:
    """A ``csvrows`` helper formatting rows ``start:stop`` into an unnamed
    temporary file in ``directory``, and that file."""
    with tempfile.TemporaryFile(dir=directory) as rows:
        for column in columns:
            rows.write(np.ascontiguousarray(column[start:stop]))
        rows.seek(0)
        text = tempfile.TemporaryFile(dir=directory, buffering=0)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", _CSVROWS, str(len(columns))], stdin=rows, stdout=text
            )
        except BaseException:
            text.close()
            raise
    return proc, text


def _end(helpers: list[tuple[subprocess.Popen, IO[bytes]]]) -> None:
    """Kill each helper still running, wait for every one, close their
    files, and empty the list."""
    for proc, text in helpers:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        text.close()
    helpers.clear()


def _write_csv(
    path: str, manifest: dict, header: Iterable[str], columns: Sequence[Sequence]
) -> None:
    """Manifest line, header, then one line per row of ``columns``, which
    are formatted and streamed out ``CSV_BLOCK_ROWS`` rows at a time.

    ``columns`` holds one column per header name, all of one length, or
    nothing for a table without rows. Each run of rows after the first
    (see ``_runs``) is formatted by a helper process, and the caller
    formats the first; where a helper cannot be started, the caller formats
    every row. Every helper has ended when this returns or raises.
    """
    directory = os.path.dirname(os.path.abspath(path))
    bounds = _runs(columns)
    helpers: list[tuple[subprocess.Popen, IO[bytes]]] = []
    with _atomic_file(path) as fh:
        try:
            try:
                for start, stop in zip(bounds[1:], bounds[2:]):
                    helpers.append(_start_helper(columns, start, stop, directory))
            except OSError:
                _end(helpers)
                bounds = [0, bounds[-1]]
            fh.write(f"{_manifest_line(manifest)}\n{','.join(header)}\n")
            fh.writelines(f"{block}\n" for block in _blocks(columns, 0, bounds[1]))
            for proc, text in helpers:
                if proc.wait():
                    raise ChildProcessError(
                        f"CSV formatting helper {proc.pid} exited with code {proc.returncode}"
                    )
                fh.flush()
                text.seek(0)
                shutil.copyfileobj(text, fh.buffer)
        finally:
            _end(helpers)


def _write_json(path: str, manifest: dict, payload: dict) -> None:
    document = {"manifest": manifest, **payload}
    _atomic_write(path, [json.dumps(document, sort_keys=True, indent=1)])


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest_params(params: dict) -> str:
    return hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()
    ).hexdigest()


def _floats(line: str) -> list[float]:
    return [float(p.strip()) for p in line.split(",")]


def _rows_by_line(path: str, lines: list[str]) -> np.ndarray:
    """The reference parse: one ``float`` per cell, line by line.

    This is the only code that raises a row's ``ParseError``, so the
    message names the first bad line in file order.
    """
    rows: list[list[float]] = []
    width: int | None = None
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = _floats(line)
        except ValueError:
            if not rows and not saw_header:
                saw_header = True  # header row such as time,value
                continue
            raise ParseError(f"{path}:{lineno}: cannot parse row {line!r}")
        if width is None:
            width = len(values)
            if width not in (1, 2):
                raise ParseError(
                    f"{path}:{lineno}: expected 1 or 2 columns, got {width}"
                )
        elif len(values) != width:
            raise ParseError(
                f"{path}:{lineno}: expected {width} columns, got {len(values)}"
            )
        rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _rows(path: str, lines: list[str]) -> np.ndarray:
    """The data rows as an (n, 1) or (n, 2) float64 table.

    numpy's C reader converts the body in one call. An empty body, one it
    refuses, or one it reads with other than 1 or 2 columns goes to
    ``_rows_by_line``, which also accepts what only ``float`` accepts
    (``1_000``, non-ASCII digits).
    """
    body = [line for line in map(str.strip, lines) if line and not line.startswith("#")]
    if body:
        try:
            _floats(body[0])
        except ValueError:
            del body[0]  # header row such as time,value
    if body:
        try:
            data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if data.shape[1] in (1, 2):
                return data
    return _rows_by_line(path, lines)


def _text_lines(path: str) -> list[str]:
    """The file's lines, read as UTF-8 with universal newlines.

    A byte that is not UTF-8 is a ParseError that names its line and its
    offset in the file; the decoder's own error names neither, and counts
    its offset within a read chunk.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Lines end at \r\n, \n or \r, as readlines counts them.
            head = raw[: exc.start].replace(b"\r\n", b"\n")
            line = head.count(b"\n") + head.count(b"\r") + 1
            raise ParseError(
                f"{path}:{line}: not UTF-8 text (byte 0x{raw[exc.start]:02x} "
                f"at offset {exc.start})"
            ) from None
        raise  # the file changed between the two reads


def read_signal_csv(path: str, sample_rate_hz: float | None = None) -> Signal:
    """Load a vibration record from CSV.

    Accepts UTF-8 text with ``#`` comment lines, an optional header row,
    and either a single ``value`` column (sample rate must be supplied) or
    ``time,value`` columns with uniform spacing (sample rate must not be
    supplied).
    """
    data = _rows(path, _text_lines(path))
    width = data.shape[1]
    if width == 1:
        if sample_rate_hz is None:
            raise ParseError(
                f"{path}: single-column input requires --sample-rate"
            )
        rate = sample_rate_hz
    elif sample_rate_hz is not None:
        raise ParseError(f"{path}: --sample-rate is for single-column input; "
                         "the time column sets the rate")
    else:
        # A non-finite time gives a nan or inf step, and so does a step
        # past the largest float; both are rejected here, not warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            dt = np.diff(data[:, 0])
        if not np.all(np.isfinite(dt)):
            raise ParseError(f"{path}: time column must be finite, with finite steps")
        if dt.size == 0 or not np.all(dt > 0):
            raise ParseError(f"{path}: time column must be strictly increasing")
        spread = float(dt.max() - dt.min())
        median_dt = float(np.median(dt))
        if spread > 1e-6 * median_dt:
            raise ParseError(f"{path}: nonuniform sample spacing ({spread:.3e} s jitter)")
        rate = 1.0 / median_dt
    try:
        return Signal(data[:, -1], rate)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _write_signal_csv(path: str, manifest: dict, s: Signal) -> None:
    _write_csv(path, manifest, ["time", "value"], [s.times(), s.samples])


def _write_run(path: str, manifest: dict, run: DegradationRun) -> None:
    """One CSV per specimen, the index at ``path``, and the RMS trend."""
    out = os.path.dirname(path)
    minutes = range(1, len(run.specimens) + 1)
    names = [f"specimen_{m:04d}.csv" for m in minutes]
    for name, s in zip(names, run.specimens):
        _write_signal_csv(os.path.join(out, name), manifest, s)
    _write_csv(path, manifest, ["minute", "filename", "severity"], [
        minutes, names, [float(default_severity_law(m)) for m in minutes],
    ])
    _write_csv(os.path.join(out, "rms_trend.csv"), manifest, ["minute", "rms"], [
        [float(m) for m in minutes], [rms(s) for s in run.specimens],
    ])


def _seed(text: str) -> int:
    """``--seed``: a non-negative integer, checked before anything runs."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return seed


def _require_seed(args: argparse.Namespace, why: str) -> int:
    if args.seed is None:
        raise ParseError(f"--seed is required {why} (no wall-clock default)")
    return args.seed


def _noisy_snr(args: argparse.Namespace) -> float:
    return args.snr_db if args.snr_db is not None else -30.0


# simulate flag -> DefectSimParams field; each flag defaults to its field.
DEFECT_FLAGS = {
    "--sample-rate": "sample_rate_hz", "--duration": "duration_s", "--fm": "f_m",
    "--t-prime": "T_prime", "--fn": "f_n", "--decay": "B", "--amplitude": "amplitude_scale",
    "--jitter-frac": "jitter_frac", "--noise-sigma": "noise_sigma",
}


def _defect_params(args: argparse.Namespace) -> DefectSimParams:
    return DefectSimParams(
        **{field: getattr(args, field) for field in DEFECT_FLAGS.values()},
        seed=_require_seed(args, f"for the {args.fixture} fixture"),
    )


@dataclass(frozen=True)
class Fixture:
    """A generated record: its output file, the option groups (see
    ``build_parser``) its generator reads, its manifest params and generator.

    ``gen_combined`` itself refuses noise without a seed, so the combined
    fixtures need no seed check here.
    """

    filename: str
    reads: tuple[str, ...]
    params: Callable[[argparse.Namespace], dict]
    generate: Callable[[argparse.Namespace], Signal | DegradationRun]


FIXTURES = {
    "tone": Fixture("tone.csv", (), lambda a: {}, lambda a: gen_tone()),
    "impulses": Fixture("impulses.csv", (), lambda a: {}, lambda a: gen_impulses()),
    "combined": Fixture(
        "combined.csv", ("snr",),
        lambda a: {"snr_db": a.snr_db},
        lambda a: gen_combined(a.snr_db, a.seed),
    ),
    "combined-noisy": Fixture(
        "combined_noisy.csv", ("snr",),
        lambda a: {"snr_db": _noisy_snr(a)},
        lambda a: gen_combined(_noisy_snr(a), a.seed),
    ),
    "defect": Fixture(
        "defect.csv", ("defect", "severity"),
        lambda a: {"severity": a.severity, "params": dataclasses.asdict(_defect_params(a))},
        lambda a: gen_defect_signal(_defect_params(a), a.severity),
    ),
    "degradation-run": Fixture(
        "index.csv", ("defect", "specimens"),
        lambda a: {"specimens": a.specimens, "params": dataclasses.asdict(_defect_params(a))},
        lambda a: gen_degradation_run(_defect_params(a), a.specimens),
    ),
}


def cmd_simulate(args: argparse.Namespace) -> int:
    fixture = FIXTURES[args.fixture]
    params = {"fixture": args.fixture, **fixture.params(args)}
    manifest = _manifest(args, params, _digest_params(params))
    data = fixture.generate(args)
    path = os.path.join(args.out, fixture.filename)
    if isinstance(data, DegradationRun):
        _write_run(path, manifest, data)
    else:
        _write_signal_csv(path, manifest, data)
    return EXIT_OK


def _ensemble_config(args: argparse.Namespace, **overrides) -> EnsembleConfig:
    fields = dict(
        method=args.method,
        ensemble_size=args.ensemble,
        noise_scale=args.noise_scale,
        hurst=args.hurst,
        master_seed=args.seed if args.seed is not None else EnsembleConfig.master_seed,
        sift=SiftConfig(max_imfs=args.max_imfs),
    )
    return EnsembleConfig(**{**fields, **overrides})


def _input_signal(args: argparse.Namespace) -> Signal:
    if args.method != "emd":
        _require_seed(args, "for ensemble methods")
    return read_signal_csv(args.input, args.sample_rate)


def cmd_decompose(args: argparse.Namespace) -> int:
    signal = _input_signal(args)
    cfg = _ensemble_config(args)
    # decompose refuses a record whose modes would outgrow the largest float
    # when scaled back, so the message names the file.
    try:
        imf_set = decompose(signal, cfg)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from exc
    manifest = _manifest(args, dataclasses.asdict(cfg), _digest_file(args.input))
    header = [f"imf_{i}" for i in range(1, imf_set.n_imfs + 1)] + ["residue"]
    _write_csv(os.path.join(args.out, "imfs.csv"), manifest, header,
               [*imf_set.imfs, imf_set.residue])
    if args.verify:
        reference = float(np.max(np.abs(signal.samples)))
        error = float(np.max(np.abs(signal.samples - imf_set.reconstruct())))
        relative = error / reference if reference > 0 else error
        print(f"max reconstruction error: {relative:.3e} relative")
        bound = 1e-9  # eemd's residual noise is by design and is not bounded
        if cfg.method != "eemd" and relative > bound:
            raise InternalCheckFailed(
                f"{cfg.method} reconstruction error {relative:.3e} exceeds {bound:.0e}"
            )
    return EXIT_OK


def cmd_diagnose(args: argparse.Namespace) -> int:
    signal = _input_signal(args)
    cfg = _ensemble_config(args)
    options = {"select": args.select, "target_hz": args.target_hz}
    config = {**dataclasses.asdict(cfg), **options, "mi_threshold": MI_THRESHOLD, "k": KSG_K}
    manifest = _manifest(args, config, _digest_file(args.input))
    # diagnose refuses a record too short for it, or a target its rate
    # cannot support, so the message names the file.
    try:
        report = diagnose(signal, cfg, **options)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from exc
    all_indices = sorted(report.selected_indices + report.rejected_indices)
    if all_indices != list(range(1, len(all_indices) + 1)):
        raise InternalCheckFailed("selected/rejected indices do not partition IMFs")
    body = dataclasses.asdict(report)
    body["spectrum_resolution_hz"] = body.pop("spectrum")["resolution_hz"]
    _write_json(os.path.join(args.out, "report.json"), manifest, {"report": body})
    spectrum = report.spectrum
    _write_csv(
        os.path.join(args.out, "spectrum.csv"), manifest,
        ["frequency_hz", "amplitude"],
        [spectrum.frequencies_hz, spectrum.amplitudes],
    )
    _write_csv(
        os.path.join(args.out, "mi_scores.csv"), manifest,
        ["imf_index", "mi_nats", "k", "degenerate", "selected"],
        list(zip(*(
            (s.imf_index, s.value_nats, s.k, int(s.degenerate),
             int(s.imf_index in report.selected_indices))
            for s in report.mi_scores
        ))),
    )
    if report.verdict == VERDICT_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, step = (float(p) for p in spec.split(":"))
    except ValueError:
        raise ParseError(f"--hurst-grid {spec!r}: need three numbers lo:hi:step") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi and step > 0):
        raise ParseError(f"--hurst-grid {spec!r}: need finite lo <= hi and step > 0")
    values = []
    v = lo
    while v <= hi + 1e-12:
        # A step below half an ulp of v never moves it, so the count is
        # bounded here rather than estimated from (hi - lo) / step.
        if len(values) == MAX_GRID_POINTS:
            raise ParseError(f"--hurst-grid {spec!r}: more than {MAX_GRID_POINTS} points")
        values.append(round(v, 12))
        v += step
    return values


def _parse_ensembles(spec: str) -> list[int]:
    try:
        return [int(p) for p in spec.split(",")]
    except ValueError:
        raise ParseError(f"--ensemble-grid {spec!r}: need comma-separated integers") from None


def cmd_compare(args: argparse.Namespace) -> int:
    grid = itertools.product(
        args.methods or [args.method],
        _parse_grid(args.hurst_grid) if args.hurst_grid else [args.hurst],
        _parse_ensembles(args.ensemble_grid) if args.ensemble_grid else [args.ensemble],
    )
    # Every config is built, and so checked, before the first decomposition.
    configs = [_ensemble_config(args, method=m, hurst=h, ensemble_size=e) for m, h, e in grid]
    signal = FIXTURES[args.fixture].generate(args)
    n = len(signal)
    components = [
        Component("tone", gen_tone().samples[:n]),
        Component("impulses", gen_impulses().samples[:n], impulsive=True),
    ]
    rows = []
    for cfg in configs:
        imf_set = decompose(signal, cfg)
        tone, impulses = separation_scores(imf_set, components)
        rows.append((
            cfg.method, cfg.hurst, cfg.ensemble_size, imf_set.n_imfs,
            tone.correlation, tone.leakage, impulses.correlation, impulses.leakage,
        ))

    params = {
        "fixture": args.fixture,
        "methods": args.methods,
        "hurst_grid": args.hurst_grid,
        "ensemble_grid": args.ensemble_grid,
        "snr_db": args.snr_db,
    }
    manifest = _manifest(args, params, _digest_params(params))
    _write_csv(os.path.join(args.out, "compare.csv"), manifest, COMPARE_COLUMNS, list(zip(*rows)))

    cells = [COMPARE_COLUMNS] + [[_cell(v) for v in row] for row in rows]
    widths = [max(len(c) for c in column) for column in zip(*cells)]
    text = ["  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in cells]
    _atomic_write(os.path.join(args.out, "compare.txt"), [_manifest_line(manifest), *text])
    return EXIT_OK


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npceemd",
        description="Ensemble decomposition and envelope-spectrum diagnosis",
    )
    # Option groups; each subcommand and each simulate fixture takes only the groups it reads.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=None, help="64-bit RNG seed")
    common.add_argument("--out", default=".", help="output directory")
    rate = argparse.ArgumentParser(add_help=False)
    rate.add_argument("--sample-rate", type=float, default=None,
                      help="sample rate in Hz for single-column CSV input")
    ensemble = argparse.ArgumentParser(add_help=False)
    ensemble.add_argument("--method", choices=METHODS, default=EnsembleConfig.method)
    ensemble.add_argument("--ensemble", type=int, default=EnsembleConfig.ensemble_size,
                          help="ensemble size Ne (pairs for ceemd/npceemd)")
    ensemble.add_argument("--hurst", type=float, default=EnsembleConfig.hurst)
    ensemble.add_argument("--noise-scale", type=float, default=EnsembleConfig.noise_scale)
    ensemble.add_argument("--max-imfs", type=int, default=SiftConfig.max_imfs)
    selection = argparse.ArgumentParser(add_help=False)
    selection.add_argument("--select", choices=SELECTORS, default=SELECTORS[0])
    selection.add_argument("--target-hz", type=float, default=None)
    groups = {g: argparse.ArgumentParser(add_help=False)
              for g in ("snr", "defect", "severity", "specimens")}
    groups["snr"].add_argument("--snr-db", type=float, default=None)
    for flag, field in DEFECT_FLAGS.items():
        groups["defect"].add_argument(flag, dest=field, type=float,
                                      default=getattr(DefectSimParams, field), help=field)
    groups["severity"].add_argument("--severity", type=float, default=1.0)
    groups["specimens"].add_argument("--specimens", type=int, default=500)

    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a benchmark fixture as CSV")
    p_sim.set_defaults(handler=cmd_simulate)
    p_fix = p_sim.add_subparsers(dest="fixture", required=True)
    for name, fixture in FIXTURES.items():
        p_fix.add_parser(name, parents=[common, *(groups[g] for g in fixture.reads)])

    p_dec = sub.add_parser("decompose", parents=[common, rate, ensemble],
                           help="decompose a CSV record into IMFs")
    p_dec.set_defaults(handler=cmd_decompose)
    p_dec.add_argument("input")
    p_dec.add_argument("--verify", action="store_true",
                       help="report the reconstruction error; exit 4 above 1e-9 "
                            "relative, except for eemd")

    p_dia = sub.add_parser("diagnose", parents=[common, rate, ensemble, selection],
                           help="run the full selection + envelope pipeline")
    p_dia.set_defaults(handler=cmd_diagnose)
    p_dia.add_argument("input")

    p_cmp = sub.add_parser("compare", parents=[common, ensemble, groups["snr"]],
                           help="separation-score table across methods or grids")
    p_cmp.set_defaults(handler=cmd_compare)
    p_cmp.add_argument("--fixture", choices=("combined", "combined-noisy"), required=True)
    p_cmp.add_argument("--methods", type=lambda s: s.split(","), default=None)
    p_cmp.add_argument("--hurst-grid", default=None,
                       help="lo:hi:step sweep of the Hurst exponent")
    p_cmp.add_argument("--ensemble-grid", default=None,
                       help="comma-separated ensemble sizes")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckFailed as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
