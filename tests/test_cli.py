"""Command-line interface: wiring, exit codes, determinism."""

import argparse
import errno
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import package_env
from fgdist import cli, experiments, xxz
from fgdist.cli import build_parser, main
from fgdist.experiments import CSV_HEADER


def test_parser_lists_all_subcommands():
    text = build_parser().format_help()
    for name in ("spectrum", "sweep", "degeneracy", "charges", "mode-diff"):
        assert name in text
    # the random and xxz sweeps run as sweep --model random|xxz
    for name in ("random-sweep", "xxz-sweep"):
        assert name not in text
        with pytest.raises(SystemExit) as exc:
            main([name, "--L", "6"])
        assert exc.value.code == 2


# every option of every subcommand: (dest, default, choices, required, type)
# by option string, as each subcommand declared its own copy before the
# shared ones moved onto parent parsers
_SHARED = {("--L",): ("L", None, None, True, int), ("--h",): ("h", None, None, True, float),
           ("--out",): ("out", None, None, False, None)}
_TABLE = {("--sector",): ("sector", "full", None, False, None),
          ("--ordering",): ("ordering", "charges:default", None, False, None)}
_OPTIONS = {
    "spectrum": {**_SHARED, **_TABLE, ("--charges",): ("charges", None, None, False, int)},
    "sweep": {
        ("--model",): ("model", "ising", ("ising", "xxz", "random"), False, None),
        ("--L",): ("L", None, None, True, int),
        ("--h",): ("h", None, None, False, float),
        ("--delta",): ("delta", None, None, False, float),
        ("--h-z",): ("h_z", None, None, False, float),
        ("--sector",): ("sector", None, None, False, None),
        ("--ordering",): ("ordering", None, None, False, None),
        ("--count",): ("count", None, None, False, int),
        ("--seed",): ("seed", None, None, False, int),
        ("--metric",): ("metric", "bures", ("bures", "trace"), False, None),
        ("--ell-min",): ("ell_min", None, None, False, int),
        ("--ell-max",): ("ell_max", None, None, False, int),
        ("--fit",): ("fit", False, None, False, None),
        ("--out",): ("out", None, None, False, None),
        ("--sector-out",): ("sector_out", None, None, False, None),
    },
    "degeneracy": {**_SHARED, ("--max-m",): ("max_m", None, None, False, int)},
    "charges": {**_SHARED, **_TABLE, ("--indices",): ("indices", "0,1,2", None, False, None)},
    "mode-diff": _SHARED,
}


def _subcommands() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_subcommand_keeps_its_options():
    commands = _subcommands()
    got = {
        name: {tuple(a.option_strings): (a.dest, a.default, a.choices, a.required, a.type)
               for a in cmd._actions if a.dest != "help"}
        for name, cmd in commands.items()
    }
    assert got == _OPTIONS
    # a shared option carries one help text wherever it is taken
    helps = {name: {a.dest: a.help for a in commands[name]._actions} for name in ("spectrum", "charges")}
    assert helps["charges"]["sector"] == helps["spectrum"]["sector"] == "'P,K' with * wildcards, or 'full'"
    assert helps["charges"]["ordering"] == helps["spectrum"]["ordering"]


def test_degeneracy_checks_max_m_before_enumerating(monkeypatch, capsys):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before --max-m was checked")

    monkeypatch.setattr(cli, "enumerate_spectrum", no_enumeration)
    for top in ("99", "-1", "16"):
        assert main(["degeneracy", "--L", "16", "--h", "1.0", "--max-m", top]) == 2
        assert f"max-m must lie in 0..15, got {top}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, first_build",
    [
        (["--L", "14", "--fit", "--ell-max", "2"], "enumerate_spectrum"),
        (["--model", "xxz", "--L", "12", "--sector", "1,4", "--fit", "--ell-max", "2"], "xxz_sector_basis"),
        (["--model", "random", "--L", "128", "--fit", "--ell-max", "8"], "sample_ensemble"),
    ],
)
def test_unsatisfiable_fit_exits_2_before_anything_is_built(argv, first_build, monkeypatch, capsys, tmp_path):
    def no_build(*args, **kwargs):
        raise AssertionError("built before the fit window was checked")

    monkeypatch.setattr(experiments, first_build, no_build)
    assert main(["sweep", *argv, "--out", str(tmp_path / "s.csv")]) == 2
    assert "need at least two points with" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--L", "8", "--h", "1.0", "--ell-min", "1", "--ell-max", "4", "--fit", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    meta = json.loads((tmp_path / "sweep.json").read_text())
    assert meta["model"] == "ising" and "fit" in meta


def test_sweep_stdout_default(capsys):
    assert main(["sweep", "--L", "5", "--ell-max", "2"]) == 0
    text = capsys.readouterr().out
    assert text.startswith(CSV_HEADER)
    assert text.count("\n") == 3


def test_sweep_sector_flag(capsys):
    assert main(["sweep", "--L", "6", "--sector", "+1,0", "--ell-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "P=+1,K=0" in out


def test_validation_errors_exit_2(capsys, tmp_path):
    assert main(["sweep", "--model", "xxz", "--L", "8"]) == 2  # missing --sector
    assert main(["sweep", "--L", "6", "--ell-min", "4", "--ell-max", "2"]) == 2
    assert main(["sweep", "--L", "6", "--ordering", "nonsense:1"]) == 2
    assert main(["sweep", "--model", "ising", "--L", "6", "--sector-out", str(tmp_path / "e.csv")]) == 2
    for sector in ("+1", "+1,0,2"):
        assert main(["sweep", "--L", "6", "--sector", sector, "--ell-max", "2"]) == 2
    assert main(["sweep", "--model", "xxz", "--L", "8", "--sector", "1", "--ell-max", "2"]) == 2
    for top in ("-1", "6"):
        assert main(["degeneracy", "--L", "6", "--h", "1.0", "--max-m", top]) == 2
    assert not (tmp_path / "e.csv").exists()
    err = capsys.readouterr().err
    assert "fgdist:" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--model", "random", "--sector", "1,2"], "--sector"),
        (["--model", "random", "--h", "0.3"], "--h"),
        (["--model", "random", "--ordering", "random:3"], "--ordering"),
        (["--model", "xxz", "--sector", "1,2", "--ordering", "random:3"], "--ordering"),
        (["--model", "xxz", "--sector", "1,2", "--h", "0.3"], "--h"),
        (["--model", "xxz", "--sector", "1,2", "--count", "9"], "--count"),
        (["--model", "ising", "--delta", "0.3"], "--delta"),
        (["--model", "ising", "--h-z", "2"], "--h-z"),
        (["--model", "ising", "--seed", "5"], "--seed"),
        (["--h", "1.0", "--count", "9"], "--count"),
    ],
)
def test_sweep_option_of_another_model_exits_2(argv, option, capsys, tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--L", "6", "--ell-max", "2", *argv, "--out", str(out)]) == 2
    assert f"fgdist: {option} does not apply to --model " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_through_a_degenerate_regular_state_exits_0(tmp_path):
    # state 2078 of this table has a fourfold pair value, where a real Schur
    # form of m is not found
    out = tmp_path / "x.csv"
    argv = ["sweep", "--model", "ising", "--L", "12", "--h", "0.95", "--metric", "bures"]
    assert main(argv + ["--ell-min", "2", "--ell-max", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER and len(lines) == 2


def test_guard_exceeded_exits_3(capsys):
    assert main(["sweep", "--L", "20", "--ell-max", "2"]) == 3
    assert "guard" in capsys.readouterr().err


def test_xxz_guard_exits_3_before_the_basis_walk(capsys):
    start = time.perf_counter()
    assert main(["sweep", "--model", "xxz", "--L", "40", "--sector", "0,20", "--ell-max", "2"]) == 3
    assert time.perf_counter() - start < 5.0
    assert "guard" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "degeneracy", "charges", "mode-diff"])
def test_enumeration_guard_exits_3_before_any_mode_table(command, capsys):
    # an L x L charge-weight table at this L would need 80 GB
    start = time.perf_counter()
    assert main([command, "--L", "100000", "--h", "1.0"]) == 3
    assert time.perf_counter() - start < 5.0
    assert "guard" in capsys.readouterr().err
    assert main([command, "--L", "100000", "--h", "-1.0"]) == 2
    assert "field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--L", "14", "--metric", "trace", "--ell-min", "3", "--ell-max", "13"],
        ["sweep", "--model", "random", "--L", "64", "--count", "64", "--metric", "trace", "--ell-max", "13"],
    ],
)
def test_trace_guard_exits_3_before_any_state_is_built(argv, capsys):
    # the whole ell range is checked before enumerating or sampling
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 5.0
    assert "guard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--L", "12", "--ell-max", "6", "--out"],
        ["sweep", "--model", "xxz", "--L", "12", "--sector", "1,6", "--ell-max", "7", "--sector-out"],
    ],
)
def test_unwritable_output_path_exits_2_before_the_sweep(argv, capsys, tmp_path):
    # each sweep computes for 7 to 10 s before it would write anything
    start = time.perf_counter()
    assert main([*argv, str(tmp_path / "missing" / "x.csv")]) == 2
    assert time.perf_counter() - start < 2.0
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize(
    "outputs",
    [
        ["--out", "res.json"],  # the sidecar of res.json is res.json
        ["--out", "s.csv", "--sector-out", "s.csv"],
        ["--out", "s.csv", "--sector-out", "s.json"],
        ["--out", "s.csv", "--sector-out", "./sub/../s.json"],
    ],
)
def test_colliding_sweep_outputs_exit_2_and_write_nothing(outputs, capsys, tmp_path):
    # each file would replace another one of the same run; the xxz sweep
    # computes for 7 to 10 s before it would write anything
    (tmp_path / "sub").mkdir()
    argv = ["sweep", "--model", "xxz", "--L", "12", "--sector", "1,6", "--ell-max", "7"]
    start = time.perf_counter()
    assert main([*argv, *(arg if arg.startswith("--") else str(tmp_path / arg) for arg in outputs)]) == 2
    assert time.perf_counter() - start < 2.0
    assert "two outputs name one file" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["sub"] and not os.listdir(tmp_path / "sub")


@pytest.mark.parametrize(
    "argv",
    [
        ["mode-diff", "--L", "4", "--h", "1", "--out"],
        ["sweep", "--L", "4", "--ell-max", "1", "--out"],
        ["sweep", "--model", "xxz", "--L", "4", "--sector", "0,2", "--ell-max", "1", "--sector-out"],
    ],
)
def test_unwritable_output_path_exits_2(argv, capsys, tmp_path):
    assert main([*argv, str(tmp_path / "missing" / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fgdist: ") and err.count("\n") == 1


def test_spectrum_command(capsys):
    assert main(["spectrum", "--L", "5", "--h", "0.5", "--charges", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "index,sector,mask,energy,parity,momentum,Q0,Q1"
    assert len(lines) == 2**5 + 1


def test_degeneracy_command(capsys):
    assert main(["degeneracy", "--L", "7", "--h", "1.0", "--max-m", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "m,r"
    assert abs(float(lines[1].split(",")[1]) - 75 / 127) < 1e-15
    assert float(lines[2].split(",")[1]) == 0.0


def test_charges_command(capsys):
    assert main(["charges", "--L", "5", "--h", "1.0", "--indices", "0,2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "index,Q0,Q2"
    q0 = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.all(np.diff(q0) >= -1e-12)


def test_mode_diff_command(capsys):
    assert main(["mode-diff", "--L", "8", "--h", "1.0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "L,h,mean_mode_diff"
    assert abs(float(lines[1].split(",")[2]) - 0.3607843137254902) < 1e-12


# exact bytes recorded from the per-command writers that preceded the shared
# CSV writer
@pytest.mark.parametrize(
    "argv, text",
    [
        (["degeneracy", "--L", "7", "--h", "1.0"], "m,r\n0,0.59055118110236215\n1,0\n2,0\n3,0\n4,0\n5,0\n6,0\n"),
        (["mode-diff", "--L", "8", "--h", "0.5"], "L,h,mean_mode_diff\n8,0.5,0.31372549019607843\n"),
    ],
)
def test_degeneracy_and_mode_diff_bytes(argv, text, capsys, tmp_path):
    assert main(argv) == 0
    assert capsys.readouterr().out == text
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()


def test_charges_bytes(capsys):
    argv = ["charges", "--L", "6", "--h", "0.8", "--sector", "+1,*", "--ordering", "charges:2,0,1", "--indices", "0,3,5"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "46743b9b97089f75e970707bfeb3d768388d3f18f6dfd967e776d8e50470ede8"


def test_sector_out_reuses_the_sweeps_sector_and_eigensystem(monkeypatch, tmp_path):
    calls = []
    block = xxz.xxz_block_hamiltonian
    monkeypatch.setattr(xxz, "xxz_block_hamiltonian", lambda *args: calls.append(args) or block(*args))
    xxz.xxz_sector_basis.cache_clear()
    # a delta no other test uses, so no earlier call has filled the eigensystem cache
    argv = ["sweep", "--model", "xxz", "--L", "8", "--sector", "1,3", "--delta", "0.6875", "--ell-max", "3",
            "--out", str(tmp_path / "s.csv"), "--sector-out", str(tmp_path / "e.csv")]
    assert main(argv) == 0
    assert xxz.xxz_sector_basis.cache_info().misses == 1
    assert len(calls) == 1


def test_sector_out_bytes(tmp_path):
    out = tmp_path / "energies.csv"
    argv = ["sweep", "--model", "xxz", "--L", "8", "--sector", "1,2", "--ell-max", "2", "--out", str(tmp_path / "s.csv")]
    assert main(argv + ["--sector-out", str(out)]) == 0
    assert out.read_text() == (
        "L,K,n_down,delta,index,energy\n"
        "8,1,2,1.4142135623730951,0,-1.9697574767520227\n"
        "8,1,2,1.4142135623730951,1,-0.5528767425479364\n"
        "8,1,2,1.4142135623730951,2,1.108420656926864\n"
    )


@pytest.mark.parametrize(
    "argv, path, digest",
    [
        # 4,096 rows: four full write blocks, energies and charges repeated
        (["spectrum", "--L", "12", "--h", "0.95"], "out.csv",
         "175c1b543636c328cb3027619b4858e87b38009e41dde26e30564954c3dbbcdf"),
        (["charges", "--L", "12", "--h", "0.95", "--indices", "0,1,2,5,11"], "out.csv",
         "4706e6eecb1beaaa6d8f65419f617c139b7ac497a943e3cc1cd5947069f74837"),
        (["sweep", "--model", "xxz", "--L", "10", "--sector", "1,4", "--h-z", "0.37", "--ell-max", "2",
          "--sector-out", "{tmp}/energies.csv"], "energies.csv",
         "73748db29a4e1be7cd442103b6acd93dfc9049454d5c117eab7a420fccf465f8"),
    ],
)
def test_export_golden_bytes(argv, path, digest, tmp_path):
    # digests of the files the per-cell writer wrote before the block writer
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert hashlib.sha256((tmp_path / path).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--L", "5", "--h", "1.0", "--charges", "9"],
        ["spectrum", "--L", "5", "--h", "1.0", "--charges", "0"],
        ["spectrum", "--L", "5", "--h", "1.0", "--charges=-2"],
        ["charges", "--L", "6", "--h", "1.0", "--indices", "0,9"],
        ["charges", "--L", "6", "--h", "1.0", "--indices=-1"],
    ],
)
def test_export_arguments_outside_the_table_exit_2(argv, capsys, tmp_path):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert "fgdist:" in capsys.readouterr().err
    assert not out.exists()


class _DiskFullAfterFirstBlock:
    """Stream that takes the header and the first 1,024-row block, then
    fails the way a full disk does."""

    def __init__(self, stream):
        self.stream, self.writes = stream, 0

    def write(self, text):
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes += 1
        return self.stream.write(text)


def test_failed_write_leaves_no_partial_file(monkeypatch, capsys, tmp_path):
    argv = ["spectrum", "--L", "12", "--h", "0.95", "--out"]
    out = tmp_path / "out.csv"
    assert main([*argv, str(out)]) == 0
    reference = tmp_path / "reference"
    reference.touch()
    assert out.stat().st_mode == reference.stat().st_mode  # the mode a plain open gives
    reference.unlink()
    finished = out.read_bytes()

    real = experiments.write_spectrum_csv
    failing = lambda table, stream, count: real(table, _DiskFullAfterFirstBlock(stream), count)
    monkeypatch.setattr(experiments, "write_spectrum_csv", failing)
    assert main([*argv, str(tmp_path / "new.csv")]) == 2
    assert main([*argv, str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["out.csv"]
    assert out.read_bytes() == finished


def test_random_sweep_command(capsys):
    assert main(["sweep", "--model", "random", "--L", "5", "--count", "4", "--seed", "9", "--ell-max", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert all(line.split(",")[0] == "random" for line in lines[1:])


def test_xxz_sweep_command(tmp_path):
    out = tmp_path / "xxz.csv"
    spec_out = tmp_path / "sector.csv"
    code = main(
        [
            "sweep", "--model", "xxz", "--L", "8", "--sector", "1,2",
            "--ell-min", "2", "--ell-max", "3", "--out", str(out),
            "--sector-out", str(spec_out),
        ]
    )
    assert code == 0
    assert out.read_text().startswith(CSV_HEADER)
    sector_lines = spec_out.read_text().strip().split("\n")
    assert sector_lines[0] == "L,K,n_down,delta,index,energy"
    assert len(sector_lines) == 4  # dim 3 sector


def test_module_entry_point_byte_identical(tmp_path):
    # identical invocations through the real interpreter, including seeds
    args = [
        sys.executable, "-m", "fgdist", "sweep", "--model", "random",
        "--L", "5", "--count", "5", "--seed", "3", "--ell-max", "3",
    ]
    runs = [subprocess.run(args, capture_output=True, timeout=120, env=package_env()) for _ in range(2)]
    for r in runs:
        assert r.returncode == 0, r.stderr.decode()
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.startswith(CSV_HEADER.encode())
