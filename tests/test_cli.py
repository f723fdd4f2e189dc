import dataclasses
import itertools
import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from npceemd import DefectSimParams, EnsembleConfig, ImfSet, decompose
from npceemd import cli, workers
from npceemd.cli import (
    CSV_BLOCK_ROWS,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_GRID_POINTS,
    ParseError,
    _manifest_line,
    _parse_grid,
    _write_csv,
    main,
    read_signal_csv,
)
from npceemd.mi import KSG_K, MI_THRESHOLD
from npceemd.pipeline import SELECTORS
from conftest import DEGENERATE_LENGTHS, DEGENERATE_SHAPES, VERDICTS
from test_workers import CHILDREN, run_fresh


def run(*argv) -> int:
    return main(list(argv))


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def write_signal(path, values, fs=1000.0):
    t = np.arange(len(values)) / fs
    rows = "\n".join(
        f"{float(tv)!r},{float(vv)!r}" for tv, vv in zip(t, values)
    )
    with open(path, "w") as fh:
        fh.write("time,value\n" + rows + "\n")


@pytest.fixture()
def tone_csv(tmp_path):
    rng = np.random.default_rng(2)
    t = np.arange(1024) / 1024.0
    x = np.sin(2 * np.pi * 50 * t) + 0.1 * rng.standard_normal(1024)
    path = tmp_path / "tone.csv"
    write_signal(path, x, 1024.0)
    return str(path)


class TestSimulate:
    def test_tone_row_count(self, tmp_path):
        assert run("simulate", "tone", "--out", str(tmp_path)) == EXIT_OK
        lines = read_lines(tmp_path / "tone.csv")
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "time,value"
        assert len(lines) == 2 + 32768

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "combined-noisy", "--seed", "9",
                       "--out", str(out)) == EXIT_OK
        with open(a / "combined_noisy.csv", "rb") as fa, \
             open(b / "combined_noisy.csv", "rb") as fb:
            assert fa.read() == fb.read()

    def test_noisy_requires_seed(self, tmp_path):
        assert run("simulate", "combined-noisy", "--out", str(tmp_path)) == EXIT_USAGE

    def test_unknown_fixture_is_usage_error(self, tmp_path):
        assert run("simulate", "wavelet", "--out", str(tmp_path)) == EXIT_USAGE

    def test_degradation_run_files(self, tmp_path):
        assert run("simulate", "degradation-run", "--specimens", "3",
                   "--seed", "4", "--out", str(tmp_path)) == EXIT_OK
        names = sorted(os.listdir(tmp_path))
        assert "index.csv" in names and "rms_trend.csv" in names
        assert [n for n in names if n.startswith("specimen_")] == [
            "specimen_0001.csv", "specimen_0002.csv", "specimen_0003.csv",
        ]
        trend = read_lines(tmp_path / "rms_trend.csv")
        assert trend[1] == "minute,rms"
        assert len(trend) == 2 + 3


class TestReadSignalCsv:
    def test_single_column_needs_rate(self, tmp_path):
        path = tmp_path / "vals.csv"
        path.write_text("value\n1.0\n2.0\n-1.0\n0.5\n")
        from npceemd.cli import ParseError

        with pytest.raises(ParseError):
            read_signal_csv(str(path))
        signal = read_signal_csv(str(path), sample_rate_hz=100.0)
        assert signal.sample_rate_hz == 100.0
        assert len(signal) == 4

    def test_time_column_infers_rate(self, tmp_path):
        path = tmp_path / "timed.csv"
        write_signal(path, np.sin(np.arange(64) * 0.3), fs=250.0)
        signal = read_signal_csv(str(path))
        assert signal.sample_rate_hz == pytest.approx(250.0, rel=1e-9)

    def test_time_column_rejects_a_sample_rate(self, tmp_path):
        # the time column sets the rate; a second rate would be ignored
        path = tmp_path / "timed.csv"
        write_signal(path, np.sin(np.arange(64) * 0.3), fs=250.0)
        with pytest.raises(ParseError, match="single-column"):
            read_signal_csv(str(path), sample_rate_hz=250.0)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0.0,1.0\n0.001,2.0\n0.002,oops\n")
        from npceemd.cli import ParseError

        with pytest.raises(ParseError) as err:
            read_signal_csv(str(path))
        assert ":4:" in str(err.value)

    def test_nonuniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "jitter.csv"
        path.write_text(
            "time,value\n0.0,1.0\n0.001,2.0\n0.0025,3.0\n0.0035,1.0\n"
        )
        from npceemd.cli import ParseError

        with pytest.raises(ParseError):
            read_signal_csv(str(path))

    def test_nan_in_time_column_names_the_file(self, tmp_path):
        # NaN compares false both ways, so a "dt <= 0" test would let it pass
        path = tmp_path / "nan_time.csv"
        path.write_text("time,value\n0.0,1.0\nnan,2.0\n0.002,3.0\n0.003,1.0\n")
        with pytest.raises(ParseError, match="nan_time.csv"):
            read_signal_csv(str(path))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name,text,rate", [
        # 1 / 5e-324 is an infinite sample rate
        ("tiny_dt.csv", "time,value\n" + "".join(f"{k * 5e-324!r},{k}\n" for k in range(8)),
         None),
        ("nan_value.csv", "time,value\n0.0,1.0\n0.001,nan\n0.002,3.0\n0.003,1.0\n", None),
        ("inf_value.csv", "value\n1.0\n-inf\n3.0\n1.0\n", 10.0),
        ("two_rows.csv", "time,value\n0.0,1.0\n0.001,2.0\n", None),
        # float("2e308") is inf, and inf - inf would warn inside np.diff
        ("huge_time.csv", "time,value\n0.0,1.0\n0.001,2.0\n2e308,3.0\n2e308,1.0\n", None),
    ], ids=["tiny-dt", "nan-value", "inf-value", "two-rows", "huge-time"])
    def test_every_rejected_record_names_the_file(self, tmp_path, name, text, rate):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError, match=name):
            read_signal_csv(str(path), rate)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "commented.csv"
        path.write_text("# manifest: {}\nvalue\n1.0\n2.0\n3.0\n4.0\n")
        signal = read_signal_csv(str(path), sample_rate_hz=10.0)
        assert len(signal) == 4


# One cell's text, put in place of a cell of a 16-row record: tokens that
# float() reads and numpy's reader may not, tokens neither reads, and
# tokens that read as non-finite or extreme values.
ODD_TOKENS = [
    "1_000", "-2_5.5", "\u0661\u0662", "\uff11", " 1.5 ", "\t2", "3\xa0", "\u30004",
    "5\x1c", "6\x0c", "\x857", "nan", "-inf", "Infinity", "+1", ".5", "5.", "1E+05",
    "-0.0", "5e-324", "1e308", "2e308", "0x10", "1d5", "1e", '"1"', "1,", "", " ", "1 2",
    "1#x", "1 # x", "\x00", "1\x002", "True", "nan(1)", "time",
]
# Files whose layout is odd: comment and blank lines between rows, a header
# only, no lines, a header-like row after the data, three columns, a ragged
# row, CRLF and lone CR line ends, and time columns that are not uniform.
ODD_FILES = {
    "comments": "# a\ntime,value\n0,1\n\n# b\n  \n0.5,2\n1,3\n# c\n1.5,4\n\n",
    "header-only": "time,value\n",
    "empty": "",
    "blank": "\n \n# only comments\n",
    "header-after": "time,value\n0,1\n1,2\ntime,value\n2,3\n3,4\n",
    "two-headers": "time,value\nseconds,volts\n0,1\n1,2\n2,3\n3,4\n",
    "three-columns": "a,b,c\n0,1,2\n1,2,3\n2,3,4\n3,4,5\n",
    "ragged": "time,value\n0,1\n1,2\n2\n3,4\n",
    "ragged-wide": "value\n1\n2\n3,4\n5\n",
    "crlf": "time,value\r\n0,1\r\n1,2\r\n2,3\r\n3,4\r\n",
    "cr": "time,value\r0,1\r1,2\r2,3\r3,4\r",
    "nonuniform": "time,value\n0,1\n1,2\n2.5,3\n3.5,4\n",
    "decreasing": "time,value\n0,1\n1,2\n0.5,3\n3,4\n",
    "no-header": "0,1\n1,2\n2,3\n3,4\n",
    "trailing-comma": "value\n1,\n2,\n3,\n4,\n",
}


def _read_outcome(path, rate):
    """A read's Signal as bits and rate, or its error's type and text."""
    try:
        signal = read_signal_csv(str(path), rate)
    except ValueError as exc:  # ParseError, or a line that is not text
        return type(exc).__name__, str(exc)
    return signal.samples.tobytes(), signal.sample_rate_hz.hex()


def _assert_reads_as_by_line(monkeypatch, path):
    """numpy's reader and the per-line float() loop give one outcome."""
    for rate in (None, 500.0):
        fast = _read_outcome(path, rate)
        with monkeypatch.context() as m:
            m.setattr(cli, "_rows", cli._rows_by_line)
            assert fast == _read_outcome(path, rate)


class TestReadSignalCsvMatchesLineLoop:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("token", ODD_TOKENS)
    def test_odd_token(self, tmp_path, monkeypatch, token):
        rows = [[repr(k * 0.002), repr(math.sin(k))] for k in range(16)]
        for where in ("header", (0, 1), (7, 0), (7, 1), (15, 1), "column"):
            if where == "column":
                lines = ["value", *(token if k == 9 else v for k, (_, v) in enumerate(rows))]
            else:
                cells = [["time", "value"], *[list(r) for r in rows]]
                row, col = (0, 0) if where == "header" else (where[0] + 1, where[1])
                cells[row][col] = token
                lines = [",".join(c) for c in cells]
            path = tmp_path / f"{ODD_TOKENS.index(token)}-{where}.csv"
            path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
            _assert_reads_as_by_line(monkeypatch, path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ODD_FILES)
    def test_odd_file(self, tmp_path, monkeypatch, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(ODD_FILES[name].encode())
        _assert_reads_as_by_line(monkeypatch, path)

    def test_files_the_cli_writes_take_numpy_s_reader(self, tmp_path, monkeypatch):
        assert run("simulate", "defect", "--seed", "1", "--out", str(tmp_path)) == EXIT_OK
        (tmp_path / "values.csv").write_text("".join(f"{k % 7 - 3}.25\n" for k in range(64)))
        monkeypatch.setattr(cli, "_rows_by_line", None)  # a call would raise TypeError
        assert len(read_signal_csv(str(tmp_path / "defect.csv"))) == 5000
        assert len(read_signal_csv(str(tmp_path / "values.csv"), 100.0)) == 64

    def test_bad_line_deep_in_a_long_file_is_named(self, tmp_path):
        lines = ["time,value", *(f"{k / 8!r},{k % 5}" for k in range(40000))]
        lines[30001] = "3750.0,2_0"  # float() reads it; numpy's reader does not
        lines[30002] = "3750.125,x"
        path = tmp_path / "late.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"late\.csv:30003: cannot parse row '3750.125,x'$"):
            read_signal_csv(str(path))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_byte_that_is_not_utf8_names_its_line_and_offset(tmp_path, capsys, newline):
    # a Latin-1 degree sign in a comment past the first 8 KiB read; the
    # decoder's own error named neither the file nor the line, and gave an
    # offset within the chunk it was decoding
    lines = ["time,value", *(f"{k / 8!r},{k % 5}" for k in range(1500)), "# at 21 \xb0C"]
    head = newline.join(lines[:-1]) + newline + "# at 21 "
    path = tmp_path / "latin1.csv"
    path.write_bytes(newline.join(lines + ["188.0,1"]).encode("latin-1"))
    with pytest.raises(
        ParseError, match=rf"latin1\.csv:1502: not UTF-8 text \(byte 0xb0 at offset {len(head)}\)$"
    ):
        read_signal_csv(str(path))
    out = tmp_path / "out"
    assert run("decompose", str(path), "--method", "emd", "--out", str(out)) == EXIT_USAGE
    assert "latin1.csv:1502: not UTF-8" in capsys.readouterr().err
    assert not out.exists()


# Values whose text is easy to get wrong: signed zero, infinities, nan, the
# smallest subnormal, the first integer-valued float shown with an exponent,
# and a value with no exact binary form.
SPECIAL_VALUES = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1]


class TestWriteCsv:
    @pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
    def test_matches_str_of_each_value_row_by_row(self, tmp_path, n):
        rng = np.random.default_rng(n)
        special = np.resize(np.array(SPECIAL_VALUES), n)
        wide = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        columns = [
            special, wide, special[::-1], wide.tolist(), range(1, n + 1),
            [f"specimen_{k:04d}.csv" for k in range(n)], [int(k % 3 == 0) for k in range(n)],
        ]
        header = [f"c{j}" for j in range(len(columns))]
        manifest = {"rows": n}
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        lines = [_manifest_line(manifest), ",".join(header), *(",".join(map(str, r)) for r in rows)]
        expected = "".join(f"{line}\n" for line in lines).encode()
        path = tmp_path / "table.csv"
        _write_csv(str(path), manifest, header, columns)
        assert path.read_bytes() == expected
        if n == 0:
            # no rows given as no columns, as for the MI scores of a flat record
            _write_csv(str(path), manifest, header, [])
            assert path.read_bytes() == expected


class TestWriteCsvHelpers:
    """A table of float arrays split between the caller and helper
    processes, forced at any size by a floor of one cell."""

    @pytest.fixture(autouse=True)
    def popens(self, monkeypatch):
        monkeypatch.setattr(cli, "HELPER_CELLS", 1)
        calls = []
        real = subprocess.Popen

        def popen(argv, **kwargs):
            calls.append(argv)
            return real(argv, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", popen)
        return calls

    @staticmethod
    def columns(n):
        rng = np.random.default_rng(n)
        special = np.resize(np.array(SPECIAL_VALUES), n)
        wide = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        return [special, wide, special[::-1], wide[::-1]]

    @staticmethod
    def expected(columns):
        rows = zip(*(c.tolist() for c in columns))
        lines = [_manifest_line({}), "a,b,c,d", *(",".join(map(str, r)) for r in rows)]
        return "".join(f"{line}\n" for line in lines).encode()

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize(
        "n", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 5 * CSV_BLOCK_ROWS + 7]
    )
    def test_same_bytes_as_the_caller_alone(self, monkeypatch, tmp_path, popens, cpus, n):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        columns = self.columns(n)
        _write_csv(str(tmp_path / "t.csv"), {}, "abcd", columns)
        assert (tmp_path / "t.csv").read_bytes() == self.expected(columns)
        assert len(popens) == min(cpus, -(-n // CSV_BLOCK_ROWS)) - 1
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_one_usable_cpu_starts_no_process(self, monkeypatch, tmp_path, popens):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        columns = self.columns(4 * CSV_BLOCK_ROWS)
        _write_csv(str(tmp_path / "t.csv"), {}, "abcd", columns)
        assert (tmp_path / "t.csv").read_bytes() == self.expected(columns)
        assert popens == []

    @pytest.mark.parametrize("fails_at", [1, 2])
    def test_a_helper_that_cannot_start_leaves_the_rows_to_the_caller(
        self, monkeypatch, tmp_path, fails_at
    ):
        # the second failure leaves a helper started: it is ended and waited for
        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
        started = []
        real = subprocess.Popen

        def popen(argv, **kwargs):
            if len(started) + 1 == fails_at:
                raise OSError("no process")
            started.append(real(argv, **kwargs))
            return started[-1]

        monkeypatch.setattr(subprocess, "Popen", popen)
        columns = self.columns(4 * CSV_BLOCK_ROWS)
        _write_csv(str(tmp_path / "t.csv"), {}, "abcd", columns)
        assert (tmp_path / "t.csv").read_bytes() == self.expected(columns)
        assert len(started) == fails_at - 1
        assert all(proc.returncode is not None for proc in started)
        assert os.listdir(tmp_path) == ["t.csv"]

    def test_a_helper_that_fails_leaves_no_file(self, monkeypatch, tmp_path):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        real = subprocess.Popen
        monkeypatch.setattr(subprocess, "Popen", lambda argv, **kwargs: real(
            [sys.executable, "-c", "import sys; sys.exit(3)"], **kwargs
        ))
        with pytest.raises(ChildProcessError, match="exited with code 3$"):
            _write_csv(str(tmp_path / "t.csv"), {}, "abcd", self.columns(4 * CSV_BLOCK_ROWS))
        assert os.listdir(tmp_path) == []

    def test_an_interrupt_ends_the_helpers(self, monkeypatch, tmp_path):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
        started = []
        real = subprocess.Popen

        def popen(argv, **kwargs):
            started.append(real([sys.executable, "-c", "import time; time.sleep(60)"], **kwargs))
            return started[-1]

        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(subprocess, "Popen", popen)
        monkeypatch.setattr(cli, "_cells", interrupt)
        with pytest.raises(KeyboardInterrupt):
            _write_csv(str(tmp_path / "t.csv"), {}, "abcd", self.columns(4 * CSV_BLOCK_ROWS))
        assert len(started) == 2
        assert [proc.returncode for proc in started] == [-9, -9]
        assert os.listdir(tmp_path) == []


def test_decompose_leaves_no_child_process(tmp_path):
    # a 32768-sample record, whose imfs.csv is formatted beside a helper
    assert run("simulate", "combined-noisy", "--seed", "2", "--out", str(tmp_path)) == EXIT_OK
    argv = ["decompose", str(tmp_path / "combined_noisy.csv"), "--method", "emd",
            "--out", str(tmp_path / "dec")]
    out = run_fresh(f"""
    import os, subprocess
    from npceemd import cli, workers
    workers.usable_cpus = lambda: 2
    real, started = subprocess.Popen, []
    subprocess.Popen = lambda *a, **k: started.append(1) or real(*a, **k)
    print(cli.main({argv!r}), len(started))
    """ + CHILDREN)
    assert out.split("\n")[:2] == ["0 1", "no child process"]


def test_artifacts_take_the_umask_mode_with_the_same_bytes(tmp_path, tone_csv):
    contents = []
    for umask, mode in [(0o022, 0o644), (0o077, 0o600)]:
        out = tmp_path / f"umask-{umask:03o}"
        old = os.umask(umask)
        try:
            assert run("simulate", "tone", "--out", str(out)) == EXIT_OK
            assert run("decompose", tone_csv, "--method", "emd", "--out", str(out)) == EXIT_OK
            assert run("diagnose", tone_csv, "--method", "emd", "--out", str(out)) in (
                EXIT_OK, EXIT_INCONCLUSIVE
            )
        finally:
            os.umask(old)
        paths = sorted(out.iterdir())
        assert [p.name for p in paths] == [
            "imfs.csv", "mi_scores.csv", "report.json", "spectrum.csv", "tone.csv"
        ]
        assert {stat.S_IMODE(p.stat().st_mode) for p in paths} == {mode}
        contents.append([p.read_bytes() for p in paths])
    assert contents[0] == contents[1]


class TestDecompose:
    def test_emd_with_verify(self, tmp_path, tone_csv, capsys):
        out = tmp_path / "dec"
        assert run("decompose", tone_csv, "--method", "emd", "--verify",
                   "--out", str(out)) == EXIT_OK
        printed = capsys.readouterr().out
        assert "max reconstruction error" in printed
        lines = read_lines(out / "imfs.csv")
        header = lines[1].split(",")
        assert header[-1] == "residue"
        assert header[0] == "imf_1"
        assert len(lines) == 2 + 1024

    @pytest.mark.parametrize("method, code", [
        ("emd", EXIT_INTERNAL), ("ceemd", EXIT_INTERNAL), ("ceemdan", EXIT_INTERNAL),
        ("npceemd", EXIT_INTERNAL), ("eemd", EXIT_OK),
    ])
    def test_verify_bounds_every_method_but_eemd(
        self, monkeypatch, tmp_path, tone_csv, capsys, method, code
    ):
        # without its first mode a decomposition no longer sums to the record;
        # eemd's error is residual noise by design, so it is only reported
        def drop_first_mode(signal, cfg):
            full = decompose(signal, cfg)
            return ImfSet(full.imfs[1:], full.residue)

        monkeypatch.setattr("npceemd.cli.decompose", drop_first_mode)
        assert run("decompose", tone_csv, "--method", method, "--seed", "1",
                   "--ensemble", "2", "--verify", "--out", str(tmp_path / "dec")) == code
        printed = capsys.readouterr()
        assert "max reconstruction error" in printed.out
        assert ("internal check failed" in printed.err) == (code == EXIT_INTERNAL)

    def test_ensemble_requires_seed(self, tmp_path, tone_csv):
        assert run("decompose", tone_csv, "--method", "eemd",
                   "--out", str(tmp_path)) == EXIT_USAGE

    def test_missing_input_file(self, tmp_path):
        assert run("decompose", str(tmp_path / "nope.csv"),
                   "--method", "emd", "--out", str(tmp_path)) == EXIT_USAGE

    def test_malformed_csv_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0.0,1.0\n0.001,xyz\n")
        assert run("decompose", str(path), "--method", "emd",
                   "--out", str(tmp_path)) == EXIT_USAGE

    def test_npceemd_column_count(self, tmp_path, tone_csv):
        out = tmp_path / "dec"
        assert run("decompose", tone_csv, "--method", "npceemd", "--seed", "3",
                   "--ensemble", "2", "--out", str(out)) == EXIT_OK
        header = read_lines(out / "imfs.csv")[1].split(",")
        assert len(header) >= 4

    def test_combined_fixture_yields_many_imfs(self, tmp_path):
        sim = tmp_path / "sim"
        assert run("simulate", "combined", "--out", str(sim)) == EXIT_OK
        out = tmp_path / "dec"
        assert run("decompose", str(sim / "combined.csv"),
                   "--method", "npceemd", "--seed", "0", "--ensemble", "2",
                   "--out", str(out)) == EXIT_OK
        header = read_lines(out / "imfs.csv")[1].split(",")
        assert len(header) - 1 >= 4  # imf columns excluding the residue


class TestDiagnose:
    def test_report_files_and_verdict(self, tmp_path, tone_csv):
        out = tmp_path / "diag"
        code = run("diagnose", tone_csv, "--method", "npceemd", "--seed", "3",
                   "--ensemble", "2", "--target-hz", "50", "--out", str(out))
        assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
        report = json.loads((out / "report.json").read_text())
        assert report["manifest"]["tool_version"]
        assert report["report"]["verdict"]
        spectrum = read_lines(out / "spectrum.csv")
        assert spectrum[1] == "frequency_hz,amplitude"
        scores = read_lines(out / "mi_scores.csv")
        assert scores[1] == "imf_index,mi_nats,k,degenerate,selected"

    def test_defect_specimen_confirms(self, tmp_path):
        spec_dir = tmp_path / "sim"
        assert run("simulate", "defect", "--severity", "30", "--seed", "4",
                   "--out", str(spec_dir)) == EXIT_OK
        out = tmp_path / "diag"
        code = run("diagnose", str(spec_dir / "defect.csv"),
                   "--method", "npceemd", "--seed", "4",
                   "--target-hz", "66.67", "--out", str(out))
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["report"]["verdict"] == "DEFECT_CONFIRMED"

    def test_kurtosis_select_flag(self, tmp_path, tone_csv):
        out = tmp_path / "diagk"
        code = run("diagnose", tone_csv, "--method", "emd",
                   "--select", "kurtosis", "--target-hz", "50",
                   "--out", str(out))
        assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
        report = json.loads((out / "report.json").read_text())
        assert report["report"]["method_variant"] == "kurtosis_baseline"
        assert len(report["report"]["selected_indices"]) <= 1


class TestCompare:
    def test_methods_table(self, tmp_path):
        out = tmp_path / "cmp"
        code = run("compare", "--fixture", "combined", "--methods", "emd",
                   "--max-imfs", "6", "--out", str(out))
        assert code == EXIT_OK
        lines = read_lines(out / "compare.csv")
        assert lines[1].split(",")[0] == "method"
        assert len(lines) == 3  # manifest + header + one method row
        assert (out / "compare.txt").exists()

    def test_hurst_grid_rows(self, tmp_path):
        out = tmp_path / "grid"
        code = run("compare", "--fixture", "combined", "--methods", "npceemd",
                   "--hurst-grid", "0.1:0.5:0.2", "--ensemble", "1",
                   "--max-imfs", "4", "--out", str(out))
        assert code == EXIT_OK
        lines = read_lines(out / "compare.csv")
        assert len(lines) == 2 + 3  # manifest + header + one row per H

    @pytest.mark.parametrize(
        "grid",
        ["0.1:0.5:0", "0.1:0.5:-0.1", "0.5:0.1:0.1", "0.1:inf:0.1",
         "0.1:0.5:1e-300", "0:0:1e-300", "0.1:0.5:1e-15", "100:100:1e-15",
         "0.1:0.5", "0.1:0.5:0.1:3", "0.1:x:0.1"],
        ids=["zero-step", "negative-step", "lo-above-hi", "infinite-hi",
             "vanishing-step", "vanishing-step-point", "tiny-step",
             "step-below-ulp", "two-fields", "four-fields", "not-a-number"],
    )
    def test_hurst_grid_must_ascend(self, tmp_path, capsys, grid):
        # a step <= 0 or below an ulp never reaches hi, a tiny one asks for
        # ~1e14 points, lo > hi would give an empty table, and a spec that
        # is not three numbers has no sweep; the parser is called first, on
        # its own, so none of these can start a decomposition
        with pytest.raises(ParseError, match=f"^--hurst-grid '{grid}': "):
            _parse_grid(grid)
        out = tmp_path / "grid"
        code = run("compare", "--fixture", "combined", "--methods", "emd",
                   "--hurst-grid", grid, "--max-imfs", "1", "--out", str(out))
        assert code == EXIT_USAGE
        assert not (out / "compare.csv").exists()
        assert capsys.readouterr().err.startswith(f"error: --hurst-grid '{grid}': ")

    def test_hurst_grid_point_bound(self):
        assert _parse_grid("0.1:0.5:0.1") == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert len(_parse_grid("0.001:1:0.001")) == MAX_GRID_POINTS
        with pytest.raises(ParseError):
            _parse_grid("0:1:0.001")

    def test_ensemble_grid_rows(self, tmp_path):
        out = tmp_path / "grid"
        code = run("compare", "--fixture", "combined", "--methods", "eemd",
                   "--ensemble-grid", "1,2", "--max-imfs", "4",
                   "--out", str(out))
        assert code == EXIT_OK
        lines = read_lines(out / "compare.csv")
        assert len(lines) == 2 + 2

    def test_external_data_lacks_ground_truth(self, tmp_path, tone_csv):
        assert run("compare", "--input", tone_csv,
                   "--out", str(tmp_path)) == EXIT_USAGE

    def test_requires_fixture(self, tmp_path):
        assert run("compare", "--out", str(tmp_path)) == EXIT_USAGE


def test_diagnose_inconclusive_exit_code(tmp_path, tone_csv, monkeypatch):
    monkeypatch.setattr("npceemd.mi.MI_THRESHOLD", 1e9)
    out = tmp_path / "diag"
    code = run("diagnose", tone_csv, "--method", "emd", "--target-hz", "50",
               "--out", str(out))
    assert code == EXIT_INCONCLUSIVE
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["verdict"] == "INCONCLUSIVE_EMPTY_SELECTION"


@pytest.mark.parametrize("command", ["decompose", "diagnose"])
@pytest.mark.parametrize("timed", [False, True], ids=["rate-inf", "spacing-5e-324"])
def test_infinite_sample_rate_is_a_usage_error(tmp_path, command, timed):
    # a rate of inf, given or from a time column spaced 5e-324 apart, gives
    # envelope-spectrum bins of zero width
    path = tmp_path / "values.csv"
    values = np.sin(np.arange(64) * 0.3).tolist()
    if timed:
        rows = "\n".join(f"{k * 5e-324!r},{v!r}" for k, v in enumerate(values))
        path.write_text("time,value\n" + rows + "\n")
        rate = []
    else:
        path.write_text("value\n" + "\n".join(map(repr, values)) + "\n")
        rate = ["--sample-rate", "inf"]
    code = run(command, str(path), *rate, "--method", "emd", "--out", str(tmp_path / "out"))
    assert code == EXIT_USAGE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "variant",
    [["--method", "emd"], ["--method", "npceemd", "--seed", "0"],
     ["--method", "emd", "--select", "kurtosis"]],
    ids=["emd", "npceemd", "kurtosis"],
)
def test_diagnose_constant_record_is_inconclusive(tmp_path, variant):
    # A constant decomposes into zero IMFs; the empty selection is the
    # documented inconclusive outcome, not an input error.
    path = tmp_path / "flat.csv"
    write_signal(path, np.ones(5000), fs=10000.0)
    out = tmp_path / "diag"
    assert run("diagnose", str(path), *variant, "--out", str(out)) == EXIT_INCONCLUSIVE
    assert sorted(os.listdir(out)) == ["mi_scores.csv", "report.json", "spectrum.csv"]
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["verdict"] == "INCONCLUSIVE_EMPTY_SELECTION"
    assert report["selected_indices"] == [] and report["rejected_indices"] == []
    assert len(read_lines(out / "mi_scores.csv")) == 2  # manifest + header


# Options each subcommand, or each simulate fixture, does not read;
# argparse must reject them.
REMOVED_FLAGS = {
    "simulate": [
        ("--method", "emd"), ("--ensemble", "2"), ("--hurst", "0.2"),
        ("--noise-scale", "0.2"), ("--mi-threshold", "0.1"), ("--k", "3"),
        ("--select", "mi"), ("--target-hz", "50"), ("--max-imfs", "3"),
    ],
    "decompose": [
        ("--mi-threshold", "0.1"), ("--k", "3"), ("--select", "mi"),
        ("--target-hz", "50"),
    ],
    # the paper's MI rule is fixed as mi.MI_THRESHOLD and mi.KSG_K
    "diagnose": [("--mi-threshold", "0.1"), ("--k", "3")],
    "compare": [
        ("--sample-rate", "100"), ("--mi-threshold", "0.1"), ("--k", "3"),
        ("--select", "mi"), ("--target-hz", "50"), ("--input", "x.csv"),
    ],
    "tone": [
        ("--snr-db", "-10"), ("--sample-rate", "5000"), ("--severity", "2"),
        ("--specimens", "3"), ("--fm", "30"),
    ],
    "combined": [("--fm", "30"), ("--sample-rate", "5000"), ("--severity", "2")],
    "defect": [("--snr-db", "0"), ("--specimens", "3")],
    "degradation-run": [("--snr-db", "0"), ("--severity", "2")],
}


@pytest.mark.parametrize(
    "command,flag,value",
    [(c, f, v) for c, flags in REMOVED_FLAGS.items() for f, v in flags],
)
def test_subcommand_rejects_flags_it_does_not_read(tmp_path, tone_csv, command, flag, value):
    base = {
        "simulate": ["simulate", "tone"],
        "decompose": ["decompose", tone_csv, "--method", "emd"],
        "diagnose": ["diagnose", tone_csv, "--method", "emd"],
        "compare": ["compare", "--fixture", "combined", "--method", "emd",
                    "--max-imfs", "1"],
        "tone": ["simulate", "tone"],
        "combined": ["simulate", "combined"],
        "defect": ["simulate", "defect", "--seed", "1", "--duration", "0.05"],
        "degradation-run": ["simulate", "degradation-run", "--seed", "1",
                            "--specimens", "1", "--duration", "0.05"],
    }[command]
    assert run(*base, "--out", str(tmp_path / "ok")) == EXIT_OK
    assert run(*base, flag, value, "--out", str(tmp_path / "bad")) == EXIT_USAGE
    assert not (tmp_path / "bad").exists()


def test_compare_combined_honours_snr(tmp_path):
    argv = ["--snr-db", "0", "--seed", "1", "--method", "emd", "--max-imfs", "3"]
    for fixture in ("combined", "combined-noisy"):
        assert run("compare", "--fixture", fixture, *argv,
                   "--out", str(tmp_path / fixture)) == EXIT_OK
    noisy = read_lines(tmp_path / "combined-noisy" / "compare.csv")
    assert read_lines(tmp_path / "combined" / "compare.csv")[1:] == noisy[1:]
    assert run("compare", "--fixture", "clean", "--out", str(tmp_path)) == EXIT_USAGE
    assert run("compare", "--fixture", "combined", "--snr-db", "0",
               "--out", str(tmp_path / "unseeded")) == EXIT_USAGE


def manifest(path):
    line = read_lines(path)[0]
    return json.loads(line.removeprefix("# manifest: "))


def test_defaults_come_from_the_library_configs(tmp_path, tone_csv):
    assert run("simulate", "defect", "--seed", "1", "--out", str(tmp_path)) == EXIT_OK
    params = manifest(tmp_path / "defect.csv")["config"]["params"]
    assert params == dataclasses.asdict(DefectSimParams(seed=1))
    assert run("decompose", tone_csv, "--method", "emd", "--out", str(tmp_path)) == EXIT_OK
    config = manifest(tmp_path / "imfs.csv")["config"]
    assert config == dataclasses.asdict(EnsembleConfig(method="emd"))
    assert run("diagnose", tone_csv, "--method", "emd", "--out", str(tmp_path)) == EXIT_OK
    config = manifest(tmp_path / "mi_scores.csv")["config"]
    assert config == {
        **dataclasses.asdict(EnsembleConfig(method="emd")),
        "select": SELECTORS[0], "mi_threshold": MI_THRESHOLD, "k": KSG_K, "target_hz": None,
    }


@pytest.mark.parametrize(
    "options",
    # diagnose takes no --k or --mi-threshold (the MI rule is fixed), so
    # argparse rejects them, with any value, before a record is read
    [["--k", "0"], ["--k", "6000"], ["--target-hz", "0"], ["--target-hz", "-1"],
     ["--target-hz", "nan"], ["--target-hz", "1e9"], ["--mi-threshold", "nan"],
     ["--mi-threshold", "inf"], ["--select", "kurtosis", "--target-hz", "1e9"],
     ["--sample-rate", "123"], ["--noise-scale", "inf"]],
    ids=["k-zero", "k-huge", "target-zero", "target-negative", "target-nan", "target-huge",
         "threshold-nan", "threshold-inf", "kurtosis-target-huge", "rate-beside-time",
         "noise-scale-inf"],
)
def test_diagnose_rejects_bad_options_before_decomposing(tmp_path, tone_csv, monkeypatch,
                                                         options):
    calls = []
    monkeypatch.setattr("npceemd.pipeline.decompose", lambda *a: calls.append(a))
    out = tmp_path / "out"
    assert run("diagnose", tone_csv, "--method", "emd", *options,
               "--out", str(out)) == EXIT_USAGE
    assert calls == [] and not out.exists()


def test_simulate_options_follow_the_fixture_name(tmp_path):
    assert run("simulate", "--seed", "4", "tone", "--out", str(tmp_path)) == EXIT_USAGE
    # DefectSimParams rejects a zero rate; there is no CLI fallback rate.
    assert run("simulate", "defect", "--seed", "1", "--sample-rate", "0",
               "--out", str(tmp_path)) == EXIT_USAGE
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "command", ["combined-noisy", "defect", "degradation-run", "decompose", "diagnose", "compare"]
)
def test_a_negative_seed_is_a_usage_error_naming_the_flag(tmp_path, tone_csv, capsys, command):
    # it used to fail inside numpy: after generating, or blaming the input file
    argv = {
        "combined-noisy": ["simulate", "combined-noisy"],
        "defect": ["simulate", "defect"],
        "degradation-run": ["simulate", "degradation-run"],
        "decompose": ["decompose", tone_csv, "--method", "npceemd"],
        "diagnose": ["diagnose", tone_csv, "--method", "npceemd"],
        "compare": ["compare", "--fixture", "combined-noisy", "--methods", "npceemd"],
    }[command]
    out = tmp_path / "out"
    assert run(*argv, "--seed", "-1", "--out", str(out)) == EXIT_USAGE
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, field",
    [(["--fn", "0"], "f_n"), (["--severity", "nan"], "severity")],
    ids=["fn-zero", "severity-nan"],
)
def test_simulate_defect_names_the_bad_parameter(tmp_path, capsys, argv, field):
    # --fn 0 used to end in a ZeroDivisionError traceback, and a NaN
    # severity in an error about the samples
    assert run("simulate", "defect", "--seed", "1", *argv, "--out", str(tmp_path)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {field} must")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "argv",
    [["defect", "--sample-rate", "inf"], ["defect", "--duration", "inf"],
     ["defect", "--sample-rate", "1e12"], ["degradation-run", "--sample-rate", "inf"]],
    ids=["inf-rate", "inf-duration", "huge-rate", "run-inf-rate"],
)
def test_simulate_rejects_unbounded_sample_counts(tmp_path, argv):
    # These used to end in an OverflowError or a numpy allocation error.
    assert run("simulate", *argv, "--seed", "1", "--out", str(tmp_path)) == EXIT_USAGE
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize(
    "grid",
    [["--methods", "npceemd,foo"],
     ["--methods", "npceemd", "--hurst-grid", "0.5:1.0:0.5"],
     ["--methods", "eemd", "--ensemble-grid", "2,0"],
     ["--methods", "eemd", "--ensemble-grid", "1,x"],
     ["--methods", "eemd", "--ensemble-grid", "1,,2"]],
    ids=["method", "hurst", "ensemble", "ensemble-not-an-integer", "ensemble-empty-entry"],
)
def test_compare_checks_the_whole_grid_first(tmp_path, monkeypatch, capsys, grid):
    calls = []
    monkeypatch.setattr("npceemd.cli.decompose", lambda *a: calls.append(a))
    assert run("compare", "--fixture", "combined", "--seed", "1", *grid,
               "--out", str(tmp_path)) == EXIT_USAGE
    assert calls == []
    if grid[-1] in ("1,x", "1,,2"):
        # a list that is not integers is named by its flag and spec
        assert capsys.readouterr().err == (
            f"error: --ensemble-grid {grid[-1]!r}: need comma-separated integers\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
def test_degenerate_record_has_a_defined_exit(tmp_path, capsys, shape):
    # The library grid in test_pipeline.py covers all five methods; through
    # the CLI each record, at peak 1 and at the largest power of two, must
    # exit 0 or 3 with a verdict, or 2 with a message naming the file, and
    # never raise.
    for n, scale in itertools.product(DEGENERATE_LENGTHS, (1.0, 2.0**1023)):
        path = tmp_path / f"{shape}-{n}-{scale:.0e}.csv"
        write_signal(path, scale * DEGENERATE_SHAPES[shape](n))
        for command in ("decompose", "diagnose"):
            out = tmp_path / f"{command}-{n}-{scale:.0e}"
            code = run(command, str(path), "--method", "emd", "--out", str(out))
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_INCONCLUSIVE), (command, n, scale, err)
            if code == EXIT_USAGE:
                assert str(path) in err, (command, n, scale, err)
            elif command == "diagnose":
                report = json.loads((out / "report.json").read_text())
                assert report["report"]["verdict"] in VERDICTS, (n, scale, report)


def test_mode_past_the_largest_float_names_the_file(tmp_path, capsys):
    # These 32 samples at a 2**1023 peak give an EMD mode that would outgrow
    # the largest float when scaled back, so both commands refuse the record.
    x = np.random.default_rng(1263).standard_normal(32)
    path = tmp_path / "huge.csv"
    write_signal(path, x / np.max(np.abs(x)) * 2.0**1023)
    for command in ("decompose", "diagnose"):
        out = tmp_path / command
        assert run(command, str(path), "--method", "emd", "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(path) in err and "largest float" in err, (command, err)


@pytest.mark.parametrize("snr_db", ["-3300", "-inf", "3300", "nan"])
def test_simulate_rejects_snr_db_without_a_power_ratio(tmp_path, capsys, snr_db):
    out = tmp_path / "out"
    assert run("simulate", "combined", "--seed", "1", f"--snr-db={snr_db}",
               "--out", str(out)) == EXIT_USAGE
    assert "snr_db" in capsys.readouterr().err
    assert not out.exists()
