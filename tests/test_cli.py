"""Command-line interface: wiring, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np

from conftest import package_env
from fgdist.cli import build_parser, main
from fgdist.experiments import CSV_HEADER


def test_parser_lists_all_subcommands():
    text = build_parser().format_help()
    for name in ("spectrum", "sweep", "degeneracy", "charges", "random-sweep", "xxz-sweep", "mode-diff"):
        assert name in text


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


def test_validation_errors_exit_2(capsys):
    assert main(["sweep", "--model", "xxz", "--L", "8"]) == 2  # missing --sector
    assert main(["sweep", "--L", "6", "--ell-min", "4", "--ell-max", "2"]) == 2
    assert main(["sweep", "--L", "6", "--ordering", "nonsense:1"]) == 2
    err = capsys.readouterr().err
    assert "fgdist:" in err


def test_guard_exceeded_exits_3(capsys):
    assert main(["sweep", "--L", "20", "--ell-max", "2"]) == 3
    assert "guard" in capsys.readouterr().err


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


def test_random_sweep_command(capsys):
    assert main(["random-sweep", "--L", "5", "--count", "4", "--seed", "9", "--ell-max", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert all(line.split(",")[0] == "random" for line in lines[1:])


def test_xxz_sweep_command(tmp_path):
    out = tmp_path / "xxz.csv"
    spec_out = tmp_path / "sector.csv"
    code = main(
        [
            "xxz-sweep", "--L", "8", "--K", "1", "--n-down", "2",
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
