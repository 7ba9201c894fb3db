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
--sector-out, with --model xxz, exports the sector's energies.  A sweep
option that the chosen model does not read (--h, --sector and --ordering
are ising's; --delta, --h-z, --sector and --sector-out xxz's; --count and
--seed random's) is an invalid argument.  The output files, which must be
different files, and their directories are checked before anything is
computed, and so is the rest of the request: a sweep's metric, ells and
fit window (by the sweep drivers of :mod:`fgdist.experiments`) and the
--max-m of degeneracy.  Every file is written under a temporary name and
renamed into place, so a failed run leaves no partial file.  The options
that spectrum, degeneracy, charges and mode-diff share (--L, --h, --out,
and --sector and --ordering of the two table exports) are declared once,
on parent parsers, and each subcommand carries its runner as its ``run``
default.  Exit codes: 0
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


def _sidecar_path(out: str) -> Path:
    """The JSON sidecar of a sweep's --out CSV."""
    return Path(out).with_suffix(".json")


def _check_outputs(paths):
    """Raise before any computation if a file of ``paths`` (None for none)
    cannot be created, its directory missing or not writable, or if two of
    them are one file, which the later write would replace."""
    paths = [Path(path) for path in paths if path is not None]
    for directory in dict.fromkeys(path.parent for path in paths):
        if not directory.is_dir():
            raise FileNotFoundError(f"output directory {str(directory)!r} does not exist")
        if not os.access(directory, os.W_OK):
            raise PermissionError(f"output directory {str(directory)!r} is not writable")
    if len({path.resolve() for path in paths}) < len(paths):
        raise ValueError(f"two outputs name one file: {', '.join(map(str, paths))}")


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
    # the options every Ising table command takes, and those of the two that
    # export a table in a chosen order
    chain = argparse.ArgumentParser(add_help=False)
    chain.add_argument("--L", type=int, required=True)
    chain.add_argument("--h", type=float, required=True)
    chain.add_argument("--out", default=None, help="CSV path (default: stdout)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--sector", default="full", help="'P,K' with * wildcards, or 'full'")
    table.add_argument("--ordering", default="charges:default", help="charges:i,j,... or random:SEED")

    cmd = sub.add_parser("spectrum", parents=[chain, table], help="export a free-fermion spectrum table")
    cmd.add_argument("--charges", type=int, default=None, help="number of Q columns (default L)")
    cmd.set_defaults(run=_run_spectrum)

    cmd = sub.add_parser("sweep", help="averaged subsystem distances")
    cmd.add_argument("--model", choices=("ising", "xxz", "random"), default="ising")
    cmd.add_argument("--L", type=int, required=True)
    cmd.add_argument("--h", type=float, default=None, help="ising field (default 1.0)")
    cmd.add_argument("--delta", type=float, default=None, help="xxz anisotropy (default sqrt 2)")
    cmd.add_argument("--h-z", type=float, default=None, help="xxz longitudinal field (default 0)")
    cmd.add_argument("--sector", default=None, help="ising: 'P,K' or 'full'; xxz: 'K,n_down'")
    cmd.add_argument("--ordering", default=None, help="ising: charges:i,j,... or random:SEED (default charges:default)")
    cmd.add_argument("--count", type=int, default=None, help="random-ensemble size (default 32)")
    cmd.add_argument("--seed", type=int, default=None, help="random-ensemble seed (default 0)")
    cmd.add_argument("--metric", choices=("bures", "trace"), default="bures")
    cmd.add_argument("--ell-min", type=int, default=None)
    cmd.add_argument("--ell-max", type=int, default=None)
    cmd.add_argument("--fit", action="store_true", help="attach an OLS slope over the 0.2L..0.4L window")
    cmd.add_argument("--out", default=None, help="CSV path (default: stdout)")
    cmd.add_argument("--sector-out", default=None, help="xxz: also export sector energies as CSV")
    cmd.set_defaults(run=_run_sweep)

    cmd = sub.add_parser("degeneracy", parents=[chain], help="degeneracy ratio vs sorting depth")
    cmd.add_argument("--max-m", type=int, default=None, help="largest m (default L-1)")
    cmd.set_defaults(run=_run_degeneracy)

    cmd = sub.add_parser("charges", parents=[chain, table], help="per-state charge profiles")
    cmd.add_argument("--indices", default="0,1,2", help="comma-separated charge indices")
    cmd.set_defaults(run=_run_charges)

    cmd = sub.add_parser("mode-diff", parents=[chain], help="mean adjacent excited-mode-count difference")
    cmd.set_defaults(run=_run_mode_diff)
    return parser


def _ordered_table(args):
    """The Ising table of --L, --h and --sector in the order of --ordering."""
    table = enumerate_spectrum(args.h, args.L, _parse_ising_sector(args.sector))
    return experiments.apply_ordering(table, args.ordering)


def _run_spectrum(args) -> int:
    if args.charges is not None and not 1 <= args.charges <= args.L:
        raise ValueError(f"charges must lie in 1..{args.L}, got {args.charges}")
    table = _ordered_table(args)
    with _output(args.out) as stream:
        experiments.write_spectrum_csv(table, stream, args.charges)
    return 0


# the model-specific options of sweep, per model that reads them, each with
# the value it takes when not given
_SWEEP_OPTIONS = {
    "ising": {"h": 1.0, "sector": None, "ordering": "charges:default"},
    "xxz": {"delta": float(np.sqrt(2.0)), "h_z": 0.0, "sector": None, "sector_out": None},
    "random": {"count": 32, "seed": 0},
}


def _run_sweep(args) -> int:
    options = _SWEEP_OPTIONS[args.model]
    for name in sorted(set().union(*_SWEEP_OPTIONS.values()) - options.keys()):
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to --model {args.model}")
    for name, default in options.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
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
        with _output(_sidecar_path(args.out)) as stream:
            stream.write(result.sidecar_text())
    return 0


def _run_degeneracy(args) -> int:
    top = args.max_m if args.max_m is not None else args.L - 1
    if not 0 <= top < args.L:
        raise ValueError(f"max-m must lie in 0..{args.L - 1}, got {top}")
    table = sort_spectrum(enumerate_spectrum(args.h, args.L))
    ratios = [degeneracy_ratio(table, m) for m in range(top + 1)]
    with _output(args.out) as stream:
        experiments._write_csv(stream, ["m", "r"], [range(top + 1), ratios])
    return 0


def _run_charges(args) -> int:
    indices = [int(s) for s in args.indices.split(",")]
    if any(not 0 <= m < args.L for m in indices):
        raise ValueError(f"charge indices must lie in 0..{args.L - 1}, got {args.indices}")
    table = _ordered_table(args)
    with _output(args.out) as stream:
        experiments.write_charge_profiles(table, indices, stream)
    return 0


def _run_mode_diff(args) -> int:
    table = sort_spectrum(enumerate_spectrum(args.h, args.L))
    value = mode_number_difference(table)
    with _output(args.out) as stream:
        experiments._write_csv(stream, ["L", "h", "mean_mode_diff"], [[args.L], [args.h], [value]])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sidecar = _sidecar_path(args.out) if args.command == "sweep" and args.out is not None else None
        _check_outputs([args.out, sidecar, getattr(args, "sector_out", None)])
        return args.run(args)
    except GuardExceeded as exc:
        print(f"fgdist: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"fgdist: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
