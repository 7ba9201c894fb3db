"""Command-line front end for the distance experiments.

Subcommands
    spectrum      export a labeled free-fermion spectrum table as CSV
    sweep         averaged subsystem distances (ising, xxz, or random)
    degeneracy    degeneracy ratio r against sorting depth m
    charges       per-state conserved-charge profiles in table order
    mode-diff     mean adjacent difference of excited-mode counts

All tabular output is CSV with floats at 17 significant digits; repeated
identical invocations emit byte-identical files.  Sweep runs with --out
also write a JSON sidecar next to the CSV (carrying the fit under --fit);
--sector-out, with --model xxz only, exports the sector's energies.  The
directories of --out and --sector-out are checked before anything is
computed, and every file is written under a temporary name and renamed
into place, so a failed run leaves no partial file.  Exit codes: 0
success, 2 invalid arguments or parameters or an output path that cannot
be written, 3 request exceeds a dense-size guard.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .errors import GuardExceeded
from .ising import degeneracy_ratio, enumerate_spectrum, mode_number_difference, sort_spectrum
from .random_ensemble import RandomEnsembleSpec
from .xxz import xxz_eigenstates, xxz_sector_basis

__all__ = ["main", "build_parser"]


def _parse_ising_sector(text: str):
    """'P,K' with * wildcards, or 'full'. Examples: '+1,3', '*,0', '-1,*'."""
    if text == "full":
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"ising sector must be 'P,K' or 'full', got {text!r}")
    parity = None if parts[0] == "*" else int(parts[0])
    momentum = None if parts[1] == "*" else int(parts[1])
    if parity is None and momentum is None:
        return None
    return parity, momentum


def _parse_xxz_sector(text: str):
    """'K,n_down', e.g. '1,2'."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"xxz sector must be 'K,n_down', got {text!r}")
    return int(parts[0]), int(parts[1])


def _ells(args, L: int):
    lo = args.ell_min if args.ell_min is not None else 1
    hi = args.ell_max if args.ell_max is not None else L - 1
    if not 1 <= lo <= hi <= L:
        raise ValueError(f"need 1 <= ell-min <= ell-max <= {L}, got {lo}..{hi}")
    return range(lo, hi + 1)


def _check_output_directory(path: str | None):
    """Raise before any computation if ``path`` cannot be created: its
    directory is missing or not writable."""
    if path is None:
        return
    directory = Path(path).parent
    if not directory.is_dir():
        raise FileNotFoundError(f"output directory {str(directory)!r} does not exist")
    if not os.access(directory, os.W_OK):
        raise PermissionError(f"output directory {str(directory)!r} is not writable")


@contextlib.contextmanager
def _output(path: str | None):
    """A text stream to ``path``, or stdout without one.  The file is written
    under a temporary name in its directory and renamed onto ``path`` only
    once the writer returns, so a failed run leaves no partial file and any
    earlier file at ``path`` as it was."""
    if path is None:
        yield sys.stdout
        return
    target = Path(path)
    temporary = target.parent / f".{target.name}.{os.urandom(6).hex()}.tmp"
    # O_EXCL: a new file of this run's own; the kernel takes the umask off
    # 0o666, so it gets the mode a plain open gives
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w") as stream:
            yield stream
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgdist",
        description="Subsystem distances between eigenstates of integrable chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("spectrum", help="export a free-fermion spectrum table")
    cmd.add_argument("--L", type=int, required=True)
    cmd.add_argument("--h", type=float, required=True)
    cmd.add_argument("--sector", default="full", help="'P,K' with * wildcards, or 'full'")
    cmd.add_argument("--ordering", default="charges:default")
    cmd.add_argument("--charges", type=int, default=None, help="number of Q columns (default L)")
    cmd.add_argument("--out", default=None)

    cmd = sub.add_parser("sweep", help="averaged subsystem distances")
    cmd.add_argument("--model", choices=("ising", "xxz", "random"), default="ising")
    cmd.add_argument("--L", type=int, required=True)
    cmd.add_argument("--h", type=float, default=1.0, help="ising field")
    cmd.add_argument("--delta", type=float, default=float(np.sqrt(2.0)), help="xxz anisotropy")
    cmd.add_argument("--h-z", type=float, default=0.0, help="xxz longitudinal field")
    cmd.add_argument("--sector", default=None, help="ising: 'P,K' or 'full'; xxz: 'K,n_down'")
    cmd.add_argument("--ordering", default="charges:default", help="charges:i,j,... or random:SEED")
    cmd.add_argument("--count", type=int, default=32, help="random-ensemble size")
    cmd.add_argument("--seed", type=int, default=0, help="random-ensemble seed")
    cmd.add_argument("--metric", choices=("bures", "trace"), default="bures")
    cmd.add_argument("--ell-min", type=int, default=None)
    cmd.add_argument("--ell-max", type=int, default=None)
    cmd.add_argument("--fit", action="store_true", help="attach an OLS slope over the 0.2L..0.4L window")
    cmd.add_argument("--out", default=None, help="CSV path (default: stdout)")
    cmd.add_argument("--sector-out", default=None, help="xxz: also export sector energies as CSV")

    cmd = sub.add_parser("degeneracy", help="degeneracy ratio vs sorting depth")
    cmd.add_argument("--L", type=int, required=True)
    cmd.add_argument("--h", type=float, required=True)
    cmd.add_argument("--max-m", type=int, default=None, help="largest m (default L-1)")
    cmd.add_argument("--out", default=None)

    cmd = sub.add_parser("charges", help="per-state charge profiles")
    cmd.add_argument("--L", type=int, required=True)
    cmd.add_argument("--h", type=float, required=True)
    cmd.add_argument("--sector", default="full")
    cmd.add_argument("--ordering", default="charges:default")
    cmd.add_argument("--indices", default="0,1,2", help="comma-separated charge indices")
    cmd.add_argument("--out", default=None)

    cmd = sub.add_parser("mode-diff", help="mean adjacent excited-mode-count difference")
    cmd.add_argument("--L", type=int, required=True)
    cmd.add_argument("--h", type=float, required=True)
    cmd.add_argument("--out", default=None)

    return parser


def _run_spectrum(args) -> int:
    if args.charges is not None and not 1 <= args.charges <= args.L:
        raise ValueError(f"charges must lie in 1..{args.L}, got {args.charges}")
    table = experiments.apply_ordering(
        enumerate_spectrum(args.h, args.L, _parse_ising_sector(args.sector)), args.ordering
    )
    with _output(args.out) as stream:
        experiments.write_spectrum_csv(table, stream, args.charges)
    return 0


def _run_sweep(args) -> int:
    if args.sector_out is not None and args.model != "xxz":
        raise ValueError(f"--sector-out needs --model xxz, got --model {args.model}")
    if args.model == "ising":
        sector = _parse_ising_sector(args.sector) if args.sector else None
        result = experiments.ising_sweep(
            args.L, args.h, args.metric, _ells(args, args.L),
            sector_filter=sector, ordering=args.ordering, fit=args.fit,
        )
    elif args.model == "xxz":
        if not args.sector:
            raise ValueError("xxz sweep needs --sector 'K,n_down'")
        momentum, n_down = _parse_xxz_sector(args.sector)
        result = experiments.xxz_sweep(
            args.L, momentum, n_down, args.delta, args.metric, _ells(args, args.L),
            h_z=args.h_z, fit=args.fit,
        )
        if args.sector_out is not None:
            energies, _ = xxz_eigenstates(xxz_sector_basis(args.L, momentum, n_down), args.delta, args.h_z)
            n = len(energies)
            columns = [[args.L] * n, [momentum] * n, [n_down] * n, [args.delta] * n, range(n), energies]
            with _output(args.sector_out) as stream:
                experiments._write_csv(stream, ["L", "K", "n_down", "delta", "index", "energy"], columns)
    else:
        spec = RandomEnsembleSpec(L=args.L, count=args.count, seed=args.seed)
        result = experiments.random_sweep(spec, args.metric, _ells(args, args.L), fit=args.fit)
    with _output(args.out) as stream:
        stream.write(result.csv_text())
    if args.out is not None:
        with _output(Path(args.out).with_suffix(".json")) as stream:
            stream.write(result.sidecar_text())
    return 0


def _run_degeneracy(args) -> int:
    table = sort_spectrum(enumerate_spectrum(args.h, args.L))
    top = args.max_m if args.max_m is not None else args.L - 1
    if not 0 <= top < args.L:
        raise ValueError(f"max-m must lie in 0..{args.L - 1}, got {top}")
    ratios = [degeneracy_ratio(table, m) for m in range(top + 1)]
    with _output(args.out) as stream:
        experiments._write_csv(stream, ["m", "r"], [range(top + 1), ratios])
    return 0


def _run_charges(args) -> int:
    indices = [int(s) for s in args.indices.split(",")]
    if any(not 0 <= m < args.L for m in indices):
        raise ValueError(f"charge indices must lie in 0..{args.L - 1}, got {args.indices}")
    table = experiments.apply_ordering(
        enumerate_spectrum(args.h, args.L, _parse_ising_sector(args.sector)), args.ordering
    )
    with _output(args.out) as stream:
        experiments.write_charge_profiles(table, indices, stream)
    return 0


def _run_mode_diff(args) -> int:
    table = sort_spectrum(enumerate_spectrum(args.h, args.L))
    value = mode_number_difference(table)
    with _output(args.out) as stream:
        experiments._write_csv(stream, ["L", "h", "mean_mode_diff"], [[args.L], [args.h], [value]])
    return 0


_RUNNERS = {
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "degeneracy": _run_degeneracy,
    "charges": _run_charges,
    "mode-diff": _run_mode_diff,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in (args.out, getattr(args, "sector_out", None)):
            _check_output_directory(path)
        return _RUNNERS[args.command](args)
    except GuardExceeded as exc:
        print(f"fgdist: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"fgdist: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
