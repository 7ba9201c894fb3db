"""Command-line front end for the distance experiments.

Subcommands
    spectrum      export a labeled free-fermion spectrum table as CSV
    sweep         averaged subsystem distances (ising, xxz, or random)
    degeneracy    degeneracy ratio r against sorting depth m
    charges       per-state conserved-charge profiles in table order
    random-sweep  all-pairs averages over a random Gaussian ensemble
    xxz-sweep     all-pairs averages within one XXZ sector
    mode-diff     mean adjacent difference of excited-mode counts

All tabular output is CSV with floats at 17 significant digits; repeated
identical invocations emit byte-identical files.  Sweep runs with --fit
and --out also write a JSON sidecar next to the CSV.  Exit codes:
0 success, 2 invalid arguments or parameters, 3 request exceeds a
dense-size guard.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .errors import GuardExceeded
from .ising import degeneracy_ratio, enumerate_spectrum, mode_number_difference, sort_spectrum
from .random_ensemble import RandomEnsembleSpec

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


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit_sweep(result, args):
    _write_text(args.out, result.csv_text())
    if args.out is not None:
        Path(args.out).with_suffix(".json").write_text(result.sidecar_text())


def _add_common_sweep_flags(cmd):
    cmd.add_argument("--metric", choices=("bures", "trace"), default="bures")
    cmd.add_argument("--ell-min", type=int, default=None)
    cmd.add_argument("--ell-max", type=int, default=None)
    cmd.add_argument("--fit", action="store_true", help="attach an OLS slope over the 0.2L..0.4L window")
    cmd.add_argument("--out", default=None, help="CSV path (default: stdout)")


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
    _add_common_sweep_flags(cmd)

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

    cmd = sub.add_parser("random-sweep", help="random pure Gaussian ensemble averages")
    cmd.add_argument("--L", type=int, required=True)
    cmd.add_argument("--count", type=int, default=32)
    cmd.add_argument("--seed", type=int, default=0)
    _add_common_sweep_flags(cmd)

    cmd = sub.add_parser("xxz-sweep", help="all-pairs averages in one XXZ sector")
    cmd.add_argument("--L", type=int, required=True)
    cmd.add_argument("--K", type=int, required=True)
    cmd.add_argument("--n-down", type=int, required=True)
    cmd.add_argument("--delta", type=float, default=float(np.sqrt(2.0)))
    cmd.add_argument("--h-z", type=float, default=0.0)
    cmd.add_argument("--sector-out", default=None, help="also export sector energies as CSV")
    _add_common_sweep_flags(cmd)

    cmd = sub.add_parser("mode-diff", help="mean adjacent excited-mode-count difference")
    cmd.add_argument("--L", type=int, required=True)
    cmd.add_argument("--h", type=float, required=True)
    cmd.add_argument("--out", default=None)

    return parser


def _run_spectrum(args) -> int:
    table = experiments.apply_ordering(
        enumerate_spectrum(args.h, args.L, _parse_ising_sector(args.sector)), args.ordering
    )
    buf = io.StringIO()
    experiments.write_spectrum_csv(table, buf, args.charges)
    _write_text(args.out, buf.getvalue())
    return 0


def _run_sweep(args) -> int:
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
    else:
        spec = RandomEnsembleSpec(L=args.L, count=args.count, seed=args.seed)
        result = experiments.random_sweep(spec, args.metric, _ells(args, args.L), fit=args.fit)
    _emit_sweep(result, args)
    return 0


def _run_degeneracy(args) -> int:
    table = sort_spectrum(enumerate_spectrum(args.h, args.L))
    top = args.max_m if args.max_m is not None else args.L - 1
    if not 0 <= top < args.L:
        raise ValueError(f"max-m must lie in 0..{args.L - 1}, got {top}")
    lines = ["m,r"]
    for m in range(top + 1):
        lines.append(f"{m},{degeneracy_ratio(table, m):.17g}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _run_charges(args) -> int:
    indices = [int(s) for s in args.indices.split(",")]
    table = experiments.apply_ordering(
        enumerate_spectrum(args.h, args.L, _parse_ising_sector(args.sector)), args.ordering
    )
    buf = io.StringIO()
    experiments.write_charge_profiles(table, indices, buf)
    _write_text(args.out, buf.getvalue())
    return 0


def _run_random_sweep(args) -> int:
    spec = RandomEnsembleSpec(L=args.L, count=args.count, seed=args.seed)
    result = experiments.random_sweep(spec, args.metric, _ells(args, args.L), fit=args.fit)
    _emit_sweep(result, args)
    return 0


def _run_xxz_sweep(args) -> int:
    result = experiments.xxz_sweep(
        args.L, args.K, args.n_down, args.delta, args.metric, _ells(args, args.L),
        h_z=args.h_z, fit=args.fit,
    )
    if args.sector_out is not None:
        from .xxz import xxz_eigenstates, xxz_sector_basis

        sector = xxz_sector_basis(args.L, args.K, args.n_down)
        energies, _, _ = xxz_eigenstates(sector, args.delta, args.h_z)
        lines = ["L,K,n_down,delta,index,energy"]
        for i, energy in enumerate(energies):
            lines.append(f"{args.L},{args.K},{args.n_down},{args.delta:.17g},{i},{energy:.17g}")
        Path(args.sector_out).write_text("\n".join(lines) + "\n")
    _emit_sweep(result, args)
    return 0


def _run_mode_diff(args) -> int:
    table = sort_spectrum(enumerate_spectrum(args.h, args.L))
    value = mode_number_difference(table)
    _write_text(args.out, f"L,h,mean_mode_diff\n{args.L},{args.h:.17g},{value:.17g}\n")
    return 0


_RUNNERS = {
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "degeneracy": _run_degeneracy,
    "charges": _run_charges,
    "random-sweep": _run_random_sweep,
    "xxz-sweep": _run_xxz_sweep,
    "mode-diff": _run_mode_diff,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except GuardExceeded as exc:
        print(f"fgdist: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"fgdist: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
