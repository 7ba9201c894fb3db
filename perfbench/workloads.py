"""The benchmark's sweeps and workloads: per-op inputs, the op, its checks.

A sweep is one fgdist sweep call; a workload is one or more sweeps, and one
op runs each of its sweeps once.  Two workloads cover five sweeps:
``kernel-sweeps`` runs the ``ising-window`` and ``random-wide`` sweeps, which
spend their time in the correlation-matrix pair kernel, and ``dense-export``
runs the ``ising-trace``, ``xxz-sector`` and ``ising-spectrum`` sweeps, which
never call it.

Each op draws one index into a fixed grid of GRID_SIZE inputs per sweep
(field h, anisotropy delta or ensemble seed); the run's seed fixes the order
in which the indices are visited.  GRID_SIZE exceeds every lru_cache in
fgdist (the largest holds 64 entries), so cycling through the grid never
lets a timed op reuse a cache entry that an earlier op filled for the same
inputs -- the XXZ Hamiltonian and eigensystem caches in particular.  Caches
keyed by size alone (the dense Majorana operators) are shared by every input
and are filled by the warm-up op, as they would be in a user's first sweep.

Only public fgdist names are used, and ops look functions up through their
modules (``cli.main``, ``experiments.random_sweep``) so a traced run can wrap
them.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fgdist import cli, experiments
from fgdist.correlation import CorrelationMatrix, fidelity
from fgdist.dense import density_from_gamma, fidelity_dense, trace_distance
from fgdist.ising import EigenstateLabel, enumerate_spectrum, sector_momenta, subsystem_correlations
from fgdist.random_ensemble import RandomEnsembleSpec, sample_ensemble
from fgdist.xxz import xxz_eigen_rdm, xxz_sector_basis

GRID_SIZE = 67
REF_TOL = 1e-10        # stored sweep averages and spectrum values
FIT_TOL = 1e-8         # fit slope: a 1e-10 change in two averages moves it by ~1.5e-9
# the seed-independent kernel checks: oracle agreement, F(a, a) = 1, symmetry.
# The regular branch is documented accurate to ~1e-8 when pair values sit near
# 1; near-pure Ising states (1 - g ~ 2e-8) reach 1.0e-8 against the oracle and
# F(a, a) = 1 - 1.13e-8, so 1e-9 would fail on them.
KERNEL_TOL = 5e-8
SAMPLED_PAIRS = 2      # per ell and op, for the seed-independent checks
SAMPLED_ROWS = 17      # spectrum rows whose floats a stored reference keeps

BRANCHES = ("regular", "reduce", "pure", "single")


@dataclass(frozen=True)
class Sweep:
    name: str
    grid: tuple                                  # parameter strings
    run: Callable[[str, Path], object]           # the timed call
    output: Callable[[object, Path], tuple]      # (csv text, fit or None), untimed
    check: Callable[[str, list, np.random.Generator], list]
    branch_mix: Callable[[str, list], Counter]
    unit: str                                    # "pairs" or "rows"

    def work(self, rows: list) -> int:
        """Pairs or rows one call completed, from its CSV rows."""
        if self.unit == "rows":
            return len(rows) - 1
        col = rows[0].index("pairs")
        return sum(int(r[col]) for r in rows[1:])


def op_inputs(seed: int):
    """(warm-up grid index, timed grid indices in visiting order) for a seed."""
    order = np.random.default_rng(seed).permutation(GRID_SIZE).tolist()
    return order[-1], order[:-1]


# -- helpers shared by the checks ---------------------------------------------

def csv_rows(text: str) -> list:
    lines = text.splitlines()
    rows = [lines[0].split(",")]
    for line in lines[1:]:
        cells = line.split(",")
        extra = len(cells) - len(rows[0])
        if extra > 0:  # XXZ sweeps write their sector label "K=1,n_down=4" unquoted
            at = rows[0].index("sector")
            cells[at:at + extra + 1] = [",".join(cells[at:at + extra + 1])]
        rows.append(cells)
    return rows


def _float_column(name: str) -> bool:
    return name in ("average", "energy") or name.startswith("Q")


def pair_branch(a: CorrelationMatrix, b: CorrelationMatrix) -> str:
    """Top-level fidelity dispatch branch of a pair, from unit pair counts."""
    if a.ell == 1:
        return "single"
    x1, x2 = a.unit_pair_count(), b.unit_pair_count()
    if x1 == 0 and x2 == 0:
        return "regular"
    if x1 == a.ell or x2 == b.ell:
        return "pure"
    return "reduce"


def gaussian_pair_checks(a: CorrelationMatrix, b: CorrelationMatrix, where: str) -> list:
    """Dense oracle at ell <= 5, F(a, a) = 1 and symmetry."""
    errors = []
    f_ab, f_ba, f_aa = fidelity(a, b), fidelity(b, a), fidelity(a, a)
    if a.ell <= 5:
        f_dense = fidelity_dense(density_from_gamma(a), density_from_gamma(b))
        if abs(f_ab - f_dense) > KERNEL_TOL:
            errors.append(f"{where}: F = {f_ab!r}, dense oracle {f_dense!r}")
    if abs(f_aa - 1.0) > KERNEL_TOL:
        errors.append(f"{where}: F(a, a) = {f_aa!r}")
    if abs(f_ab - f_ba) > KERNEL_TOL:
        errors.append(f"{where}: F(a, b) = {f_ab!r} but F(b, a) = {f_ba!r}")
    return errors


def sweep_shape_checks(rows: list, ells, pairs: int, L: int) -> list:
    """Row labels every sweep must carry, whatever its inputs."""
    head = rows[0]
    got = [(int(r[head.index("ell")]), r[head.index("x")], int(r[head.index("pairs")])) for r in rows[1:]]
    want = [(ell, f"{ell / L:.17g}", pairs) for ell in ells]
    errors = [] if got == want else [f"rows (ell, x, pairs) {got} != {want}"]
    for r in rows[1:]:
        if not 0.0 <= float(r[head.index("average")]) <= math.sqrt(2.0):
            errors.append(f"average {r[head.index('average')]} outside [0, sqrt 2]")
    return errors


def _sample_consecutive(count: int, rng) -> list:
    return sorted(rng.choice(count - 1, size=SAMPLED_PAIRS, replace=False).tolist())


def _sample_pairs(count: int, rng) -> list:
    return [tuple(sorted(rng.choice(count, size=2, replace=False).tolist())) for _ in range(SAMPLED_PAIRS)]


# -- ising-window: CLI sweep, regular-branch Bures pairs ----------------------

WINDOW_L, WINDOW_ELLS = 10, (3, 4)


def ising_states(L: int, h: float, ell: int, sector_filter=None) -> list:
    """Subsystem states in the order an Ising sweep visits them."""
    table = experiments.apply_ordering(enumerate_spectrum(h, L, sector_filter), "charges:default")
    return [CorrelationMatrix(m, validate=False) for m in subsystem_correlations(table, ell)]


def _window_run(h: str, out: Path):
    argv = ["sweep", "--model", "ising", "--L", str(WINDOW_L), "--h", h, "--metric", "bures",
            "--ell-min", str(WINDOW_ELLS[0]), "--ell-max", str(WINDOW_ELLS[-1]), "--fit",
            "--out", str(out / "ising-window.csv")]
    return cli.main(argv)


def _cli_output(status, out: Path, stem: str, sidecar: bool) -> tuple:
    if status != 0:
        raise RuntimeError(f"fgdist exited with status {status}")
    fit = None
    if sidecar:
        fit = json.loads((out / f"{stem}.json").read_text())["fit"]
    return (out / f"{stem}.csv").read_text(), fit


def _window_check(h: str, rows: list, rng) -> list:
    errors = sweep_shape_checks(rows, WINDOW_ELLS, 2**WINDOW_L - 1, WINDOW_L)
    for ell in WINDOW_ELLS:
        states = ising_states(WINDOW_L, float(h), ell)
        for i in _sample_consecutive(len(states), rng):
            errors += gaussian_pair_checks(states[i], states[i + 1], f"ell={ell} pair {i}")
    return errors


def _window_mix(h: str, rows: list) -> Counter:
    mix = Counter()
    for ell in WINDOW_ELLS:
        states = ising_states(WINDOW_L, float(h), ell)
        mix.update(pair_branch(a, b) for a, b in zip(states, states[1:]))
    return mix


# -- random-wide: all pairs of a random pure ensemble, regular and reduce ------

RANDOM_L, RANDOM_COUNT, RANDOM_ELLS = 64, 12, (24, 40)


def _random_spec(seed: str) -> RandomEnsembleSpec:
    return RandomEnsembleSpec(L=RANDOM_L, count=RANDOM_COUNT, seed=int(seed))


def _random_run(seed: str, out: Path):
    return experiments.random_sweep(_random_spec(seed), "bures", list(RANDOM_ELLS))


def _api_output(result, out: Path) -> tuple:
    return result.csv_text(), result.fit


def _random_check(seed: str, rows: list, rng) -> list:
    errors = sweep_shape_checks(rows, RANDOM_ELLS, RANDOM_COUNT * (RANDOM_COUNT - 1) // 2, RANDOM_L)
    states = sample_ensemble(_random_spec(seed))
    for i, j in _sample_pairs(RANDOM_COUNT, rng):
        for ell in (4,) + RANDOM_ELLS:
            errors += gaussian_pair_checks(states[i].restrict(ell), states[j].restrict(ell), f"ell={ell} pair {i},{j}")
    return errors


def _random_mix(seed: str, rows: list) -> Counter:
    states = sample_ensemble(_random_spec(seed))
    mix = Counter()
    for ell in RANDOM_ELLS:
        blocks = [s.restrict(ell) for s in states]
        mix.update(pair_branch(blocks[i], blocks[j]) for i in range(len(blocks)) for j in range(i + 1, len(blocks)))
    return mix


# -- ising-trace: dense density matrices, no pair kernel ----------------------

TRACE_L, TRACE_ELLS, TRACE_SECTOR = 10, (3, 4, 5), (1, None)


def _trace_run(h: str, out: Path):
    return experiments.ising_sweep(TRACE_L, float(h), "trace", list(TRACE_ELLS), sector_filter=TRACE_SECTOR)


def _trace_check(h: str, rows: list, rng) -> list:
    errors = sweep_shape_checks(rows, TRACE_ELLS, 2 ** (TRACE_L - 1) - 1, TRACE_L)
    for ell in TRACE_ELLS:
        states = ising_states(TRACE_L, float(h), ell, TRACE_SECTOR)
        for i in _sample_consecutive(len(states), rng):
            a, b = states[i], states[i + 1]
            where = f"ell={ell} pair {i}"
            errors += gaussian_pair_checks(a, b, where)
            rho, sigma = density_from_gamma(a), density_from_gamma(b)
            t_ab, t_ba, t_aa = trace_distance(rho, sigma), trace_distance(sigma, rho), trace_distance(rho, rho)
            f = fidelity(a, b)
            # Fuchs-van de Graaf: 1 - F <= T <= sqrt(1 - F^2)
            if not 1.0 - f - KERNEL_TOL <= t_ab <= math.sqrt(max(1.0 - f * f, 0.0)) + KERNEL_TOL:
                errors.append(f"{where}: T = {t_ab!r} outside the Fuchs-van de Graaf bounds of F = {f!r}")
            if t_aa > KERNEL_TOL or abs(t_ab - t_ba) > KERNEL_TOL:
                errors.append(f"{where}: T(a, a) = {t_aa!r}, T(a, b) = {t_ab!r}, T(b, a) = {t_ba!r}")
    return errors


def _dense_mix(rows: list) -> Counter:
    col = rows[0].index("pairs")
    return Counter(dense=sum(int(r[col]) for r in rows[1:]))


# -- xxz-sector: interacting chain, dense reduced-density-matrix fidelity -----

XXZ_L, XXZ_K, XXZ_DOWN, XXZ_ELLS = 12, 1, 4, (2, 3, 4, 5)


def _xxz_run(delta: str, out: Path):
    return experiments.xxz_sweep(XXZ_L, XXZ_K, XXZ_DOWN, float(delta), "bures", list(XXZ_ELLS))


def _xxz_check(delta: str, rows: list, rng) -> list:
    sector = xxz_sector_basis(XXZ_L, XXZ_K, XXZ_DOWN)
    errors = sweep_shape_checks(rows, XXZ_ELLS, sector.dim * (sector.dim - 1) // 2, XXZ_L)
    for ell in XXZ_ELLS:
        for i, j in _sample_pairs(sector.dim, rng):
            rho = xxz_eigen_rdm(sector, float(delta), i, ell)
            sigma = xxz_eigen_rdm(sector, float(delta), j, ell)
            f_ab, f_ba, f_aa = fidelity_dense(rho, sigma), fidelity_dense(sigma, rho), fidelity_dense(rho, rho)
            if abs(np.trace(rho) - 1.0) > REF_TOL or abs(f_aa - 1.0) > KERNEL_TOL or abs(f_ab - f_ba) > KERNEL_TOL:
                errors.append(f"ell={ell} states {i},{j}: tr = {np.trace(rho)!r}, F(a, a) = {f_aa!r}, "
                              f"F(a, b) = {f_ab!r}, F(b, a) = {f_ba!r}")
    return errors


# -- ising-spectrum: CLI spectrum export ---------------------------------------

SPECTRUM_L = 14


def _spectrum_run(h: str, out: Path):
    return cli.main(["spectrum", "--L", str(SPECTRUM_L), "--h", h, "--out", str(out / "ising-spectrum.csv")])


def _spectrum_check(h: str, rows: list, rng) -> list:
    head, body = rows[0], rows[1:]
    n = 2**SPECTRUM_L
    errors = []
    if len(body) != n or [r[0] for r in body] != [str(i) for i in range(n)]:
        return [f"expected {n} rows indexed 0..{n - 1}, got {len(body)}"]
    q0 = np.array([float(r[head.index("Q0")]) for r in body])
    if np.any(np.diff(q0) < -1e-9 * SPECTRUM_L):
        errors.append("rows are not sorted by Q0")
    for i in rng.choice(n, size=8, replace=False).tolist():
        row = dict(zip(head, body[i]))
        ks2 = sector_momenta(SPECTRUM_L, row["sector"])
        mask = int(row["mask"])
        label = EigenstateLabel(L=SPECTRUM_L, h=float(h), sector=row["sector"],
                                occupied=tuple(int(ks2[b]) for b in range(len(ks2)) if mask >> b & 1))
        want = [label.energy] + label.charges().tolist()
        got = [float(row["energy"])] + [float(row[f"Q{m}"]) for m in range(SPECTRUM_L)]
        if (int(row["parity"]), int(row["momentum"])) != (label.parity, label.momentum) \
                or max(abs(g - w) for g, w in zip(got, want)) > REF_TOL:
            errors.append(f"row {i} disagrees with its eigenstate label")
    return errors


# -- registry and reference comparison ------------------------------------------

def _h_grid():
    return tuple(f"{0.901 + 0.003 * i:.3f}" for i in range(GRID_SIZE))


SWEEPS = {
    s.name: s
    for s in (
        Sweep("ising-window", _h_grid(), _window_run, lambda st, out: _cli_output(st, out, "ising-window", True),
              _window_check, _window_mix, "pairs"),
        Sweep("random-wide", tuple(str(i) for i in range(GRID_SIZE)), _random_run, _api_output,
              _random_check, _random_mix, "pairs"),
        Sweep("ising-trace", _h_grid(), _trace_run, _api_output,
              _trace_check, lambda p, rows: _dense_mix(rows), "pairs"),
        # this delta grid keeps every adjacent level gap of the sector above
        # 3e-4, so eigenvectors, and with them the references, are well defined
        Sweep("xxz-sector", tuple(f"{1.205 + 0.01 * i:.3f}" for i in range(GRID_SIZE)), _xxz_run, _api_output,
              _xxz_check, lambda p, rows: _dense_mix(rows), "pairs"),
        Sweep("ising-spectrum", _h_grid(), _spectrum_run, lambda st, out: _cli_output(st, out, "ising-spectrum", False),
              _spectrum_check, lambda p, rows: Counter(), "rows"),
    )
}


# workload -> the sweeps one op runs, in order
WORKLOADS = {
    "kernel-sweeps": ("ising-window", "random-wide"),
    "dense-export": ("ising-trace", "xxz-sector", "ising-spectrum"),
}


def digest(csv_text: str, fit) -> dict:
    """What a stored reference keeps of one op's output.

    Label and integer columns of every row enter a hash and must match
    exactly; float columns are kept for up to SAMPLED_ROWS evenly spaced rows
    and must match to REF_TOL.
    """
    rows = csv_rows(csv_text)
    exact = [i for i, name in enumerate(rows[0]) if not _float_column(name)]
    sha = hashlib.sha256("\n".join(",".join(r[i] for i in exact) for r in rows).encode()).hexdigest()
    body = len(rows) - 1
    keep = sorted({round(k * (body - 1) / (SAMPLED_ROWS - 1)) for k in range(SAMPLED_ROWS)}) if body > SAMPLED_ROWS \
        else range(body)
    return {"header": rows[0], "rows": body, "exact_sha256": sha,
            "sample": {str(i): rows[i + 1] for i in keep}, "fit": fit}


def compare_to_reference(got: dict, ref: dict) -> list:
    """Failures of one op's digest against its stored reference."""
    for key in ("header", "rows", "exact_sha256"):
        if got[key] != ref[key]:
            return [f"{key} differs from the reference"]
    errors = []
    floats = [_float_column(name) for name in ref["header"]]
    for i, want in ref["sample"].items():
        for name, is_float, g, w in zip(ref["header"], floats, got["sample"][i], want):
            if (abs(float(g) - float(w)) > REF_TOL) if is_float else g != w:
                errors.append(f"row {i} column {name}: {g} != reference {w}")
    for key, want in (ref["fit"] or {}).items():
        g = got["fit"][key]
        if (abs(g - want) > FIT_TOL) if isinstance(want, float) else g != want:
            errors.append(f"fit {key}: {g!r} != reference {want!r}")
    return errors
