"""Distance-sweep experiments and their serialization.

Drivers here connect the model modules to the distance kernels:

* Ising sweeps average a metric over consecutive pairs of a (sorted or
  permuted) spectrum table, one row per subsystem size ell.  The Bures
  path works entirely on correlation matrices; the trace path expands
  each state to its dense 2^ell reduced density matrix, so it is guarded.
* XXZ sweeps average over all pairs within one momentum-magnetization
  sector (dense reduced density matrices throughout).
* Random-ensemble sweeps average over all pairs of Haar-random pure
  Gaussian states.

Slope fits follow a fixed recipe: ordinary least squares of the average
against x = ell / L over the window ceil(0.2 L) <= ell <= floor(0.4 L),
with Bures averages scaled by 1/sqrt(2) first.  Reference curves:
f(x) = 2x below x = 1/2 and 1 from there on (the x = 1/2 point is set to
1 by convention); g(x) = 0 at x = 0 and 1 elsewhere.

CSV rows carry the schema  model,L,param,sector,ordering,metric,ell,x,
average,pairs  with floats at 17 significant digits, so identical
invocations serialize byte-identically and round-trip losslessly.  The
param column holds h for Ising, Delta for XXZ, and the ensemble seed for
random sweeps.  A JSON sidecar mirrors the run parameters (for XXZ sweeps
also the field h_z) and the fit.  Every table the package exports goes
through one writer, ``_write_csv``, which streams CSV_BLOCK_ROWS rows at a
time and formats each distinct float64 bit pattern of a block once, so the
spectrum export neither holds the table as Python objects nor formats the
values it repeats more than once per block.

Ising and random sweeps share one pair loop on the (n, 2 ell, 2 ell) stack
of the states' correlation matrices: the Ising stack of
:func:`fgdist.ising.subsystem_correlations`, or the leading 2 ell rows and
columns of the random ensemble's stack.  Bures pairs of one ell go to
:func:`fgdist.correlation.bures_distances`, which evaluates the regular
branch on stacks of pairs and returns the same values as a per-pair loop.
Trace pairs compare dense reduced density matrices as their two
fermion-parity blocks, built by :func:`fgdist.dense.density_stack` in
blocks of TRACE_STACK_ELEMENTS // 4^ell states (at least one) and compared
a block of pairs at a time, so consecutive and all-pairs sweeps alike hold
two blocks of states and one of differences: a few MiB up to ell = 7.  A
pair's distance is the sum of its two parity blocks' distances, exact
because the trace norm of a block-diagonal operator is the sum over its
blocks.

Every sweep checks its whole request once, in :func:`_checked_ells`,
before it enumerates a table, walks a sector or samples an ensemble: the
metric, each ell in 1..L, for 'trace' the largest ell against the dense
guard, and with ``fit`` at least two ells in the fit window.  So a request
that would fail does so before the work, not after it.  All three sweeps
then fill their rows and attach the fit through one helper,
:func:`_filled`.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

# bures_distance and density_from_gamma are not called here, but
# perfbench/tracing.py wraps the names in this namespace
from .correlation import _index_pairs, _state_stack, bures_distance, bures_distances  # noqa: F401
from .dense import _check_guard, density_from_gamma, density_stack, trace_distance  # noqa: F401
from .ising import SECTORS, SpectrumTable, enumerate_spectrum, sort_spectrum, subsystem_correlations
from .random_ensemble import RandomEnsembleSpec, sample_ensemble
from .xxz import xxz_pairwise_average, xxz_sector_basis

__all__ = [
    "SweepResult",
    "CSV_HEADER",
    "average_consecutive_distance",
    "apply_ordering",
    "linear_slope_fit",
    "reference_curve",
    "ising_sweep",
    "xxz_sweep",
    "random_sweep",
    "write_spectrum_csv",
    "write_charge_profiles",
]

CSV_HEADER = "model,L,param,sector,ordering,metric,ell,x,average,pairs"
# full-matrix entries per block of states of a trace sweep: 32 states at
# ell = 5 and one from ell = 8 on.  The states are built as their two parity
# blocks, half the entries, so a block of them takes 256 KiB of complex
# entries
TRACE_STACK_ELEMENTS = 2**15
# rows formatted and written per block by _write_csv
CSV_BLOCK_ROWS = 1024


def _cells(part) -> list:
    """One block of a column as text by the per-cell rule: floats (numpy
    float64 included) at 17 significant digits, every other value as
    ``str(value)``.  An ndarray is read through ``tolist``."""
    if isinstance(part, np.ndarray):
        part = part.tolist()
    return [f"{v:.17g}" if isinstance(v, float) else str(v) for v in part]


def _write_csv(stream, header, columns):
    """Stream a header row, then one row per index of the equally long
    columns, CSV_BLOCK_ROWS rows per write, nothing quoted.

    A column is any sliceable sequence: a list, tuple, range or 1-D ndarray.
    Cells follow the rule of ``_cells``.  In each block the float64 ndarray
    columns are stacked and deduplicated by bit pattern, so each distinct
    value is formatted once (a spectrum table repeats its energies and
    charges); every other column is formatted cell by cell.  Raises
    ValueError, before anything is written, when the header and the columns
    differ in count or the columns differ in length.
    """
    if len(header) != len(columns):
        raise ValueError(f"CSV header has {len(header)} cells but there are {len(columns)} columns")
    lengths = sorted({len(column) for column in columns})
    if len(lengths) > 1:
        raise ValueError(f"CSV columns must be equally long, got lengths {lengths}")
    stream.write(",".join(header) + "\n")
    floats = [k for k, column in enumerate(columns) if isinstance(column, np.ndarray) and column.dtype == np.float64]
    for start in range(0, lengths[0] if lengths else 0, CSV_BLOCK_ROWS):
        parts = [column[start : start + CSV_BLOCK_ROWS] for column in columns]
        cells = [None if k in floats else _cells(part) for k, part in enumerate(parts)]
        if floats:
            block = np.stack([parts[k] for k in floats])
            bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
            text = np.array([format(v, ".17g") for v in bits.view(np.float64).tolist()], dtype=object)
            for k, row in zip(floats, text[inverse.reshape(block.shape)].tolist()):
                cells[k] = row
        stream.write("\n".join(map(",".join, zip(*cells))) + "\n")


@dataclass
class SweepResult:
    """Per-ell averaged distances plus provenance and an optional fit."""

    model: str
    L: int
    param: float
    sector: str
    ordering: str
    metric: str
    rows: list = field(default_factory=list)  # (ell, average, pair_count)
    fit: dict | None = None
    h_z: float | None = None  # the XXZ longitudinal field; None for other models

    def csv_text(self) -> str:
        ells, averages, pairs = zip(*self.rows) if self.rows else ((), (), ())
        provenance = (self.model, self.L, self.param, self.sector, self.ordering, self.metric)
        columns = [[value] * len(ells) for value in provenance]
        buf = io.StringIO()
        _write_csv(buf, CSV_HEADER.split(","), columns + [ells, [ell / self.L for ell in ells], averages, pairs])
        return buf.getvalue()

    def sidecar(self) -> dict:
        """Every field that is set, with the row count in place of the rows."""
        meta = {f.name: value for f in fields(self) if (value := getattr(self, f.name)) is not None}
        return meta | {"rows": len(self.rows)}

    def sidecar_text(self) -> str:
        return json.dumps(self.sidecar(), sort_keys=True, indent=2) + "\n"

    def attach_fit(self) -> "SweepResult":
        ells = [r[0] for r in self.rows]
        values = [r[1] for r in self.rows]
        slope, intercept = linear_slope_fit(ells, values, self.L, metric=self.metric)
        lo, hi = fit_window(self.L)
        self.fit = {"slope": slope, "intercept": intercept, "ell_min": lo, "ell_max": hi}
        return self


def fit_window(L: int) -> tuple:
    return math.ceil(0.2 * L), math.floor(0.4 * L)


def _in_window(ells, L: int) -> np.ndarray:
    """Which of ``ells`` lie in the fit window, as a mask; raises ValueError
    unless at least two do."""
    lo, hi = fit_window(L)
    ells = np.asarray(ells)
    inside = (lo <= ells) & (ells <= hi)
    if inside.sum() < 2:
        raise ValueError(f"need at least two points with {lo} <= ell <= {hi}, have {inside.sum()}")
    return inside


def linear_slope_fit(ells, values, L: int, metric: str) -> tuple:
    """OLS slope/intercept of average vs x = ell/L over the fit window.

    Bures values are divided by sqrt(2) first; the fit needs at least two
    points inside ceil(0.2 L) <= ell <= floor(0.4 L).
    """
    inside = _in_window(ells, L)
    scale = 1.0 / np.sqrt(2.0) if metric == "bures" else 1.0
    xs = np.asarray(ells)[inside] / L
    ys = np.asarray(values, dtype=float)[inside] * scale
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def reference_curve(x: float, which: str) -> float:
    """Large-L limit curves: 'f' for eigenstate pairs, 'g' for random pairs."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if which == "f":
        return 2.0 * x if x < 0.5 else 1.0
    if which == "g":
        return 0.0 if x == 0.0 else 1.0
    raise ValueError(f"which must be 'f' or 'g', got {which!r}")


def apply_ordering(table: SpectrumTable, scheme: str) -> SpectrumTable:
    """Reorder a table by a scheme string.

    'charges:default' or 'charges:2,0,1' sorts hierarchically by those
    charge indices; 'random:SEED' applies a seed-deterministic uniform
    permutation.
    """
    kind, _, arg = scheme.partition(":")
    if kind == "charges":
        keys = None if arg in ("", "default") else [int(s) for s in arg.replace("-", ",").split(",")]
        return sort_spectrum(table, keys)
    if kind == "random":
        if not arg:
            raise ValueError("random ordering needs a seed, e.g. random:7")
        perm = np.random.default_rng(int(arg)).permutation(len(table))
        return table.reordered(perm, sort_keys=None, ordering=f"random:{int(arg)}")
    raise ValueError(f"unknown ordering scheme {scheme!r}")


def _pair_distances(m: np.ndarray, pairs: list, metric: str) -> np.ndarray:
    """Distances between the states m[i] and m[j] of a stack (n, 2 ell,
    2 ell) for each index pair (i, j), 'bures' or 'trace'.

    For 'trace' the whole stack is checked first, as for 'bures', and the
    states are split into blocks of TRACE_STACK_ELEMENTS // 4^ell states (at
    least one), each state built as its two parity blocks.  The pairs are
    grouped by the blocks of their two states; each group is evaluated with
    its two blocks built, at most one block of pairs per stacked
    ``trace_distance`` of the parity blocks, whose two distances per pair
    are summed, and the values go to their pairs' positions.  A sweep over
    consecutive pairs builds each block once; an all-pairs sweep rebuilds
    the later blocks once per earlier block, and holds at most two blocks
    and one block of differences at a time either way.
    """
    if metric == "bures":
        return bures_distances(m, pairs)
    if metric != "trace":
        raise ValueError(f"metric must be 'bures' or 'trace', got {metric!r}")
    m = _state_stack(m)
    size = max(1, TRACE_STACK_ELEMENTS // 4 ** (m.shape[-1] // 2))
    pairs = _index_pairs(pairs, len(m))
    blocks, rows = np.divmod(pairs, size)
    codes = blocks[:, 0] * len(m) + blocks[:, 1]
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    values = np.empty(len(pairs))
    built = {}
    for group in np.split(order, starts)[1:]:  # [1:]: the empty piece before starts[0] = 0
        bi, bj = blocks[group[0]].tolist()
        built = {b: rho for b, rho in built.items() if b in (bi, bj)}
        for b in (bi, bj):
            if b not in built:
                built[b] = density_stack(m[b * size : (b + 1) * size])
        for start in range(0, len(group), size):
            chunk = group[start : start + size]
            values[chunk] = trace_distance(built[bi][rows[chunk, 0]], built[bj][rows[chunk, 1]]).sum(axis=-1)
    return values


def average_consecutive_distance(table: SpectrumTable, ell: int, metric: str) -> tuple:
    """Average metric over the d-1 consecutive pairs of the table order."""
    if len(table) < 2:
        raise ValueError("need at least two states")
    pairs = [(i, i + 1) for i in range(len(table) - 1)]
    values = _pair_distances(subsystem_correlations(table, ell), pairs, metric)
    return float(values.mean()), len(pairs)


def _checked_ells(L: int, metric: str, ells, fit: bool) -> list:
    """The ells of a sweep over a chain of L sites as a list, once the whole
    request is checked: the metric is 'bures' or 'trace', every ell lies in
    1..L, a trace sweep's largest ell is within the dense guard and, with
    ``fit``, at least two ells lie in the fit window.  Each sweep calls it
    before it enumerates, walks a sector or samples anything."""
    if metric not in ("bures", "trace"):
        raise ValueError(f"metric must be 'bures' or 'trace', got {metric!r}")
    ells = list(ells)
    for ell in ells:
        if not 1 <= ell <= L:
            raise ValueError(f"cannot keep {ell} of {L} modes")
    if metric == "trace":
        _check_guard(max(ells, default=0))
    if fit:
        _in_window(ells, L)
    return ells


def _filled(result: SweepResult, ells: list, average, fit: bool) -> SweepResult:
    """``result`` with one row (ell, *average(ell)) per ell, average giving
    (average, pair count), and with its fit if ``fit``."""
    result.rows += [(ell, *average(ell)) for ell in ells]
    return result.attach_fit() if fit else result


def _sector_descriptor(sector_filter) -> str:
    if sector_filter is None:
        return "full"
    parity, momentum = sector_filter
    parts = []
    if parity is not None:
        parts.append(f"P={parity:+d}")
    if momentum is not None:
        parts.append(f"K={momentum}")
    return ",".join(parts) if parts else "full"


def ising_sweep(
    L: int,
    h: float,
    metric: str,
    ells,
    sector_filter=None,
    ordering: str = "charges:default",
    fit: bool = False,
) -> SweepResult:
    """Consecutive-pair distance averages across an Ising spectrum table."""
    ells = _checked_ells(L, metric, ells, fit)
    table = apply_ordering(enumerate_spectrum(h, L, sector_filter), ordering)
    result = SweepResult(
        model="ising",
        L=L,
        param=h,
        sector=_sector_descriptor(sector_filter),
        ordering=table.ordering,
        metric=metric,
    )
    return _filled(result, ells, lambda ell: average_consecutive_distance(table, ell, metric), fit)


def xxz_sweep(
    L: int,
    K: int,
    n_down: int,
    delta: float,
    metric: str,
    ells,
    h_z: float = 0.0,
    fit: bool = False,
) -> SweepResult:
    """All-pairs distance averages within one XXZ sector."""
    ells = _checked_ells(L, metric, ells, fit)
    sector = xxz_sector_basis(L, K, n_down)
    result = SweepResult(
        model="xxz",
        L=L,
        param=delta,
        sector=f"K={K},n_down={n_down}",
        ordering="all-pairs",
        metric=metric,
        h_z=float(h_z),
    )
    return _filled(result, ells, lambda ell: xxz_pairwise_average(sector, delta, ell, metric, h_z), fit)


def random_sweep(spec: RandomEnsembleSpec, metric: str, ells, fit: bool = False) -> SweepResult:
    """All-pairs distance averages over a random pure Gaussian ensemble."""
    ells = _checked_ells(spec.L, metric, ells, fit)
    top = 2 * max(ells, default=0)  # no ell reads past the leading block of the largest
    m = np.stack([state.m[:top, :top] for state in sample_ensemble(spec)])
    pairs = [(i, j) for i in range(spec.count) for j in range(i + 1, spec.count)]
    result = SweepResult(
        model="random",
        L=spec.L,
        param=spec.seed,
        sector=f"count={spec.count}",
        ordering="all-pairs",
        metric=metric,
    )

    def average(ell):
        return float(_pair_distances(m[:, : 2 * ell, : 2 * ell], pairs, metric).mean()), len(pairs)

    return _filled(result, ells, average, fit)


def write_spectrum_csv(table: SpectrumTable, stream, charge_count: int | None = None):
    """Spectrum export: index,sector,mask,energy,parity,momentum,Q0..Qm."""
    available = table.charges.shape[1]
    count = available if charge_count is None else charge_count
    if not 0 <= count <= available:
        raise ValueError(f"charge count must lie in 0..{available}, got {count}")
    header = ["index", "sector", "mask", "energy", "parity", "momentum"] + [f"Q{m}" for m in range(count)]
    columns = [range(len(table)), [SECTORS[code] for code in table.sector_codes.tolist()]]
    columns += [table.masks, table.energy, table.parity, table.momentum]
    _write_csv(stream, header, columns + list(table.charges[:, :count].T))


def write_charge_profiles(table: SpectrumTable, charge_indices, stream):
    """Per-state charge columns in table order: index,Q{m},..."""
    indices = list(charge_indices)
    available = table.charges.shape[1]
    if not all(0 <= m < available for m in indices):
        raise ValueError(f"charge indices must lie in 0..{available - 1}, got {indices}")
    header = ["index"] + [f"Q{m}" for m in indices]
    _write_csv(stream, header, [range(len(table))] + list(table.charges[:, indices].T))
