"""Free-fermion spectrum of the periodic transverse-field Ising chain.

The chain H = -(1/2) sum_j (sigma^x_j sigma^x_{j+1} + h sigma^z_j) with
periodic boundaries splits into two fermion parity sectors after the
Jordan-Wigner transformation: antiperiodic fermions (NS, half-integer
momenta k in {1/2, ..., L-1/2}, spin parity +1, even occupation) and
periodic fermions (R, integer momenta k in {0, ..., L-1}, spin parity -1,
odd occupation).  Momenta are stored doubled (2k) so sector bookkeeping is
exact integer arithmetic.

Every eigenstate is labeled by its sector and occupied momentum set, with

    E = sum_k eps_k (n_k - 1/2),    eps_k = sqrt(h^2 - 2 h cos(2 pi k/L) + 1)

except at the unpaired k = 0 mode of the R sector, where the Bogoliubov
rotation is trivial and the level carries the signed energy h - 1; the
absolute value would mislabel occupations for h < 1 and shift the R-sector
spectrum off the spin-chain one.  At the critical point the k = 0 level is
an exact zero mode; its occupation still changes the state, and the
convention here (trivial rotation, c_0 = a_0) is pinned by the dense
oracle tests.

Conserved charges: with n = 0, 1, 2, ... and the sector momentum set K_S,

    Q_n^+ = sum_k cos(n k pi / L) eps_k (n_k - 1/2)
    Q_n^- = sum_k sin((n+1) k pi / L) (n_k - 1/2)

interleaved as Q_m = Q_{m/2}^+ for even m and Q_{(m-1)/2}^- for odd m, so
Q_0 is the energy.  Sorting the spectrum lexicographically by
(Q_0, ..., Q_m) with a tie tolerance groups degenerate states; the
degeneracy ratio is the fraction of adjacent sorted pairs that still agree
on all keys.

All per-mode data -- momenta, theta_k, eps_k, the Bogoliubov angles and
the k -> -k map -- comes from one read-only O(L) mode table per
(L, h, sector), computed once and cached; :func:`dispersion` returns a copy
of its energies, :func:`charge_weights` builds only the rows it is asked
for from its theta_k and eps_k, and the enumeration, the labels and the
subsystem correlations read it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .correlation import CorrelationMatrix
from .errors import GuardExceeded
from .pfaffian import popcount

__all__ = [
    "SECTORS",
    "EigenstateLabel",
    "SpectrumTable",
    "sector_momenta",
    "dispersion",
    "charge_weights",
    "enumerate_spectrum",
    "sort_spectrum",
    "degeneracy_ratio",
    "eigenstate_correlation",
    "subsystem_correlations",
    "mode_number_difference",
]

SECTORS = ("NS", "R")
ENUMERATION_GUARD = 16


def _tie_tolerance(L: int) -> float:
    return 1e-9 * max(1.0, float(L))


def sector_momenta(L: int, sector: str) -> np.ndarray:
    """Doubled momenta 2k of the sector, ascending."""
    if sector == "NS":
        return np.arange(1, 2 * L, 2, dtype=np.int64)
    if sector == "R":
        return np.arange(0, 2 * L, 2, dtype=np.int64)
    raise ValueError(f"unknown sector {sector!r}")


@lru_cache(maxsize=64)
def _mode_data(L: int, h: float, sector: str) -> tuple:
    """The sector's mode table, read-only: doubled momenta 2k, theta_k =
    2 pi k / L, energies eps_k (the signed h - 1 at the R-sector k = 0),
    Bogoliubov cos/sin halves u_k and v_k, and the index map k -> -k.
    Checks the chain."""
    if L < 2:
        raise ValueError(f"chain length must be at least 2, got {L}")
    if h < 0:
        raise ValueError(f"field must be non-negative, got {h}")
    ks2 = sector_momenta(L, sector)
    theta = np.pi * ks2 / L
    eps = np.sqrt(h * h - 2.0 * h * np.cos(theta) + 1.0)
    if sector == "R":
        eps[0] = h - 1.0
    # index of -k (mod L) within the sector array
    minus = np.searchsorted(ks2, (2 * L - ks2) % (2 * L))
    unpaired = minus == np.arange(len(ks2))
    # eps * e^{i angle} = h - e^{-i theta} pins the pairing-term sign
    angle = np.where(unpaired, 0.0, np.angle(h - np.exp(-1j * theta)))
    table = (ks2, theta, eps, np.cos(angle / 2.0), np.sin(angle / 2.0), minus)
    for array in table:
        array.flags.writeable = False
    return table


def _occupations(masks, modes: int) -> np.ndarray:
    """0/1 occupation of modes 0..modes-1 (bit b of a mask), one row per mask."""
    return ((np.asarray(masks)[..., None] >> np.arange(modes)) & 1).astype(np.int64)


def dispersion(h: float, L: int, sector: str) -> np.ndarray:
    """Mode energies over the sector momentum set (ascending in k).

    Paired momenta carry sqrt(h^2 - 2 h cos(2 pi k / L) + 1) >= 0; the
    unpaired k = 0 level of the R sector carries the signed value h - 1
    (see the module docstring).
    """
    return _mode_data(L, h, sector)[2].copy()


def charge_weights(h: float, L: int, sector: str, count: int | None = None) -> np.ndarray:
    """Weight matrix W with Q_m = sum_k W[m, k] (n_k - 1/2), m = 0..count-1,
    count in 0..L (default L).

    Even m carry Q^+_{m/2} with weight cos(n theta_k) eps_k, odd m carry
    Q^-_{(m-1)/2} with weight sin((n+1) theta_k), theta_k = 2 pi k / L.
    The argument must be a whole multiple of theta_k: anything else is not
    single-valued in k mod L (and an even function of k could never split
    the k <-> -k mirror degeneracies the odd charges exist to lift).
    """
    _, theta, eps, *_ = _mode_data(L, h, sector)
    if count is None:
        count = L
    if not 0 <= count <= L:
        raise ValueError(f"charge count must lie in 0..{L}, got {count}")
    # row m multiplies theta by m/2 (Q^+, even m) or (m+1)/2 (Q^-, odd m)
    m = np.arange(count)[:, None]
    arg = ((m + 1) // 2) * theta
    return np.where(m % 2 == 0, np.cos(arg) * eps, np.sin(arg))


@dataclass
class EigenstateLabel:
    """A free-fermion eigenstate: sector plus occupied momenta (doubled)."""

    L: int
    h: float
    sector: str
    occupied: tuple

    def __post_init__(self):
        ks2 = _mode_data(self.L, self.h, self.sector)[0]
        occupied = tuple(self.occupied)  # read once: it may be an iterator
        if not all(isinstance(q, (int, np.integer)) and not isinstance(q, bool) for q in occupied):
            raise ValueError(f"occupied momenta must be integers, got {occupied!r}")
        occupied = tuple(sorted(int(q) for q in occupied))
        missing = set(occupied) - set(ks2.tolist())
        if missing:
            raise ValueError(f"momenta {sorted(missing)} not in the {self.sector} sector")
        if len(set(occupied)) != len(occupied):
            raise ValueError("occupied momenta must be distinct")
        want_even = self.sector == "NS"
        if (len(occupied) % 2 == 0) != want_even:
            raise ValueError(
                f"{self.sector} states need {'even' if want_even else 'odd'} occupation"
            )
        self.occupied = occupied

    @property
    def parity(self) -> int:
        return 1 if self.sector == "NS" else -1

    @property
    def momentum(self) -> int:
        return (sum(self.occupied) % (2 * self.L)) // 2

    def occupation_vector(self) -> np.ndarray:
        ks2 = _mode_data(self.L, self.h, self.sector)[0]
        occ = np.zeros(len(ks2), dtype=np.int64)
        occ[np.searchsorted(ks2, np.array(self.occupied, dtype=np.int64))] = 1
        return occ

    @property
    def energy(self) -> float:
        eps = _mode_data(self.L, self.h, self.sector)[2]
        return float(eps @ (self.occupation_vector() - 0.5))

    def charges(self, count: int | None = None) -> np.ndarray:
        w = charge_weights(self.h, self.L, self.sector, count)
        return w @ (self.occupation_vector() - 0.5)


@dataclass(eq=False)
class SpectrumTable:
    """Labeled free-fermion spectrum held as flat arrays.

    Rows keep whatever order the table was built or sorted with;
    ``sort_keys`` records the charge key order of the last sort and
    ``ordering`` is a provenance string for exported files.
    """

    L: int
    h: float
    sector_codes: np.ndarray  # 0 = NS, 1 = R
    masks: np.ndarray
    momentum: np.ndarray
    charges: np.ndarray
    sort_keys: tuple | None = None
    ordering: str = "enumeration"

    def __len__(self):
        return len(self.masks)

    @property
    def energy(self) -> np.ndarray:
        return self.charges[:, 0]

    @property
    def parity(self) -> np.ndarray:
        return np.where(self.sector_codes == 0, 1, -1)

    def occupation_matrix(self, sector_code: int) -> np.ndarray:
        """(rows of that sector) x (sector modes) 0/1 matrix, in table order."""
        return _occupations(self.masks[self.sector_codes == sector_code], self.L)

    def mode_counts(self) -> np.ndarray:
        return popcount(self.masks).astype(np.int64)

    def label(self, index: int) -> EigenstateLabel:
        sector = SECTORS[int(self.sector_codes[index])]
        ks2 = _mode_data(self.L, self.h, sector)[0]
        occupied = ks2[_occupations(self.masks[index], self.L) == 1]
        return EigenstateLabel(L=self.L, h=self.h, sector=sector, occupied=tuple(occupied.tolist()))

    def reordered(self, order: np.ndarray, sort_keys=None, ordering=None) -> "SpectrumTable":
        return replace(
            self,
            sector_codes=self.sector_codes[order],
            masks=self.masks[order],
            momentum=self.momentum[order],
            charges=self.charges[order],
            sort_keys=sort_keys,
            ordering=ordering if ordering is not None else self.ordering,
        )


def enumerate_spectrum(h: float, L: int, sector_filter=None) -> SpectrumTable:
    """Enumerate the physical eigenstates (NS even, then R odd, masks ascending).

    ``sector_filter`` is an optional (parity, momentum) pair; either entry
    may be None to leave that quantum number unrestricted.
    """
    momenta = [_mode_data(L, h, sector)[0] for sector in SECTORS]  # checks the chain
    if L > ENUMERATION_GUARD:
        raise GuardExceeded(f"full enumeration at L={L} exceeds the guard of {ENUMERATION_GUARD}")
    blocks = []
    for code, (sector, ks2) in enumerate(zip(SECTORS, momenta)):
        masks = np.arange(2**L, dtype=np.int64)
        masks = masks[popcount(masks) % 2 == code]  # NS (code 0) even occupation, R odd
        occ = _occupations(masks, L)
        momentum = (occ @ ks2) % (2 * L) // 2
        charges = (occ - 0.5) @ charge_weights(h, L, sector).T
        codes = np.full(len(masks), code, dtype=np.uint8)
        blocks.append((codes, masks, momentum.astype(np.int64), charges))
    table = SpectrumTable(L, h, *(np.concatenate(columns) for columns in zip(*blocks)))
    if sector_filter is not None:
        want_p, want_k = sector_filter
        keep = np.ones(len(table), dtype=bool)
        if want_p is not None:
            if want_p not in (1, -1):
                raise ValueError(f"parity filter must be +1 or -1, got {want_p}")
            keep &= table.parity == want_p
        if want_k is not None:
            if not 0 <= want_k < L:
                raise ValueError(f"momentum filter must lie in [0, {L}), got {want_k}")
            keep &= table.momentum == want_k
        order = np.nonzero(keep)[0]
        table = table.reordered(order)
    return table


def sort_spectrum(table: SpectrumTable, key_order=None) -> SpectrumTable:
    """Stable lexicographic sort by the given charge indices with tie grouping.

    ``key_order`` is a sequence of distinct charge indices (default
    0, 1, ..., L-1).  Values closer than 1e-9 * max(1, L) count as ties and
    keep their relative order for the next key.  The sort stops at the
    first key after which every tie group is one row.
    """
    if key_order is None:
        key_order = tuple(range(table.L))
    key_order = tuple(int(k) for k in key_order)
    if len(set(key_order)) != len(key_order) or any(not 0 <= k < table.L for k in key_order):
        raise ValueError(f"key order must be distinct charge indices below {table.L}")
    tol = _tie_tolerance(table.L)
    order = np.arange(len(table))
    # tie-group id of each row in the current order, ascending along it
    group = np.zeros(len(table), dtype=np.int64)
    for key in key_order:
        vals = table.charges[order, key]
        perm = np.lexsort((vals, group))  # stable: equal values keep their order
        order, group, vals = order[perm], group[perm], vals[perm]
        changed = np.zeros(len(table), dtype=bool)
        changed[1:] = (group[1:] != group[:-1]) | (vals[1:] - vals[:-1] > tol)
        group = np.cumsum(changed)
        if changed[1:].all():  # every tie group is one row: later keys move none
            break
    # hyphen-joined so the provenance survives as a single CSV cell
    ordering = "charges:" + "-".join(str(k) for k in key_order)
    return table.reordered(order, sort_keys=key_order, ordering=ordering)


def degeneracy_ratio(table: SpectrumTable, m: int) -> float:
    """Fraction of adjacent sorted pairs that agree on Q_0..Q_m within the tie
    tolerance.  The table must have been sorted with key order starting
    (0, 1, ..., m)."""
    if not 0 <= m < table.L:
        raise ValueError(f"charge index m must lie in 0..{table.L - 1}, got {m}")
    if len(table) < 2:
        raise ValueError("need at least two states")
    if table.sort_keys is None or tuple(table.sort_keys[: m + 1]) != tuple(range(m + 1)):
        raise ValueError(f"table is not sorted by (Q_0..Q_{m})")
    tol = _tie_tolerance(table.L)
    diffs = np.abs(np.diff(table.charges[:, : m + 1], axis=0))
    ties = (diffs <= tol).all(axis=1)
    return float(ties.sum() / (len(table) - 1))


def mode_number_difference(table: SpectrumTable) -> float:
    """Mean |N_i - N_{i+1}| of occupied-mode counts over adjacent rows."""
    if len(table) < 2:
        raise ValueError("need at least two states")
    counts = table.mode_counts()
    return float(np.abs(np.diff(counts)).mean())


def _subsystem_m_batch(L: int, h: float, sector: str, occ: np.ndarray, ell: int) -> np.ndarray:
    """Stack of real antisymmetric m matrices of the leading ell sites for
    the given occupation rows (states x modes)."""
    _, theta, _, u, v, minus = _mode_data(L, h, sector)
    n_minus = occ[:, minus]
    big_n = occ * (u * u) + (1 - n_minus) * (v * v)          # <a_k^dag a_k>
    f_im = (u * v) * (occ + n_minus - 1)                     # <a_k a_{-k}> / i
    # Toeplitz profiles over d = l - j
    ds = np.arange(-(ell - 1), ell)
    phases = np.exp(1j * np.outer(theta, ds)) / L            # (modes, d)
    g_prof = big_n @ phases                                  # G(d) = sum_k e^{i theta d} N_k / L
    f_prof = (1j * f_im) @ phases                            # F(d) = sum_k e^{i theta d} F_k / L
    j_idx = np.arange(ell)
    dmat = j_idx[None, :] - j_idx[:, None]                   # l - j
    g_jl = g_prof[:, dmat + (ell - 1)]
    f_jl = f_prof[:, (ell - 1) - dmat]                       # F depends on j - l
    delta = np.eye(ell)
    m = np.zeros((occ.shape[0], 2 * ell, 2 * ell))
    m[:, 0::2, 0::2] = 2.0 * (f_jl.imag + g_jl.imag)
    m[:, 1::2, 1::2] = 2.0 * (g_jl.imag - f_jl.imag)
    m[:, 0::2, 1::2] = delta - 2.0 * (g_jl.real + f_jl.real)
    m[:, 1::2, 0::2] = -delta + 2.0 * (g_jl.real - f_jl.real)
    # the mode sums leave m_ab + m_ba at a few ulp; (m - m^T) / 2 is exactly
    # antisymmetric, as every reader of the lower or the upper triangle needs
    return (m - np.swapaxes(m, 1, 2)) / 2.0


def eigenstate_correlation(label: EigenstateLabel, ell: int) -> CorrelationMatrix:
    """Majorana correlation matrix of the leading ``ell`` sites of an
    eigenstate, from mode sums at O(L ell^2) cost."""
    if not 1 <= ell <= label.L:
        raise ValueError(f"subsystem size {ell} outside 1..{label.L}")
    occ = label.occupation_vector()[None, :]
    return CorrelationMatrix(_subsystem_m_batch(label.L, label.h, label.sector, occ, ell)[0], validate=False)


def subsystem_correlations(table: SpectrumTable, ell: int) -> np.ndarray:
    """Stack of leading-ell-site m matrices for every row of the table."""
    if not 1 <= ell <= table.L:
        raise ValueError(f"subsystem size {ell} outside 1..{table.L}")
    out = np.zeros((len(table), 2 * ell, 2 * ell))
    for code, sector in enumerate(SECTORS):
        sel = table.sector_codes == code
        if sel.any():
            occ = table.occupation_matrix(code)
            out[sel] = _subsystem_m_batch(table.L, table.h, sector, occ, ell)
    return out
