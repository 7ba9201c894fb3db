"""XXZ chain in fixed momentum and magnetization sectors.

H = -(1/4) sum_j (X_j X_{j+1} + Y_j Y_{j+1} + Delta Z_j Z_{j+1})
    - (h_z/2) sum_j Z_j,   periodic, j = 1..L.

The chain conserves total magnetization (n_down down spins) and momentum.
A sector is stored as its Bloch columns, one per translation orbit: an
orbit of period R contributes to momentum K iff K * R = 0 mod L, and the
column of an orbit with smallest configuration a is

    |a(K)> = R^{-1/2} sum_{t=0}^{R-1} w^t |T^t a>,    w = e^{+i 2 pi K / L},

where T moves the content of site j to site j+1 (site 1 is the most
significant bit).  With this phase the one-site translation acts as
T |a(K)> = e^{-i 2 pi K / L} |a(K)>, the same eigenvalue convention the
free-fermion momentum labels carry.  The columns are numbered by
ascending a, and the sector holds their nonzero entries as three arrays
sorted by configuration: the configuration, its column and its amplitude.

The Hamiltonian is built straight from the bits of the configurations, one
bond at a time (a flip-flop entry per pair of unequal neighbours plus a
diagonal); :func:`xxz_dense_hamiltonian` assembles the full-space sparse
matrix from it, equal entry for entry and bit for bit to the sum of sparse
Pauli products written above.  A sector block B^dag H B is summed in numpy
over those three arrays and over the rows of H that belong to the sector,
and eigenvectors are lifted back to the full space from the same arrays,
so reduced density matrices come from ordinary partial traces.  Sectors
are cached on (L, K, n_down) and eigensystems on the sector object, which
hashes by identity: every caller asking for one sector (a sweep, its
sector export) shares one orbit walk and one diagonalization per
(Delta, h_z), and a hand-built sector is diagonalized from its own arrays.
Only :func:`xxz_dense_hamiltonian` loads scipy.  The field h_z commutes
with everything and only shifts a fixed-magnetization block uniformly; it is
accepted and verified but defaults to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dense import _check_guard, partial_trace

__all__ = [
    "XXZSector",
    "translate_bits",
    "xxz_sector_basis",
    "xxz_dense_hamiltonian",
    "xxz_block_hamiltonian",
    "xxz_eigenstates",
    "xxz_eigen_rdm",
    "xxz_pairwise_average",
]


def translate_bits(config: int, L: int) -> int:
    """One-site translation of a configuration (site j content to j+1)."""
    return (config >> 1) | ((config & 1) << (L - 1))


@dataclass(frozen=True, eq=False)
class XXZSector:
    """Momentum-magnetization sector as its normalized Bloch columns: the
    nonzero entries B[configs[i], orbit[i]] = amplitudes[i], configurations
    ascending.  Sectors hash and compare by identity, the key of the
    eigensystem cache."""

    L: int
    K: int
    n_down: int
    configs: np.ndarray
    orbit: np.ndarray
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.orbit.max(initial=-1)) + 1


@lru_cache(maxsize=32)
def xxz_sector_basis(L: int, K: int, n_down: int) -> XXZSector:
    """The Bloch columns of the (K, n_down) sector, one per translation orbit
    of period R with K * R = 0 mod L, numbered by ascending representative.

    Each configuration with n_down down spins starts a walk along its orbit,
    which stops at the first smaller configuration; a walk that comes back
    to its start has found a representative and records its orbit with the
    amplitudes w^t R^{-1/2}.  Walks all 2^L configurations, so it checks the
    dense guard first: every consumer of a sector builds 2^L-row Bloch
    vectors anyway.  Cached, with read-only arrays, so every caller asking
    for the same sector shares one object and with it one eigensystem.
    """
    _check_guard(L)
    if not 0 <= n_down <= L:
        raise ValueError(f"n_down must lie in 0..{L}, got {n_down}")
    if not 0 <= K < L:
        raise ValueError(f"momentum must lie in 0..{L - 1}, got {K}")
    omega = np.exp(2j * np.pi * K / L)
    configs, orbit, amplitudes = [], [], []
    for config in range(2**L):
        if bin(config).count("1") != n_down:
            continue
        walk, t = [config], translate_bits(config, L)
        while t > config:
            walk.append(t)
            t = translate_bits(t, L)
        period = len(walk)
        if t == config and K * period % L == 0:
            column = orbit[-1] + 1 if orbit else 0
            configs += walk
            orbit += [column] * period
            amplitudes += [omega**step / np.sqrt(period) for step in range(period)]
    configs = np.array(configs, dtype=np.int64)
    order = np.argsort(configs)
    arrays = (configs[order], np.array(orbit, dtype=np.int64)[order], np.array(amplitudes, dtype=complex)[order])
    for array in arrays:
        array.flags.writeable = False
    return XXZSector(L, K, n_down, *arrays)


def _bond_entries(L: int, delta: float, h_z: float, configs: np.ndarray | None = None):
    """Rows, columns and real values of H in the rows ``configs`` (all 2^L
    by default): the diagonal first, then the flip-flop entries bond by bond
    (guarded).

    Site j is bit L - j of a configuration, with Z eigenvalue s_j = +1 for a
    0 bit.  X_j X_{j+1} + Y_j Y_{j+1} is 2 between configurations that differ
    by swapping unequal spins j, j+1 and 0 otherwise, so each such bond puts
    -0.5 off the diagonal.  The diagonal is accumulated bond by bond in the
    order of the Pauli sum, d - (0.25 delta) s_j s_{j+1} and then
    d - (0.5 h_z) s_j.  At L = 2 both bonds flip the same pair of sites, so
    their entries repeat.  A periodic chain needs two sites: at L = 1 the
    only bond would join site 1 to itself.
    """
    _check_guard(L)
    if L < 2:
        raise ValueError(f"the periodic XXZ chain needs at least two sites, got L = {L}")
    if configs is None:
        configs = np.arange(2**L, dtype=np.int64)
    spins = 1 - 2 * ((configs >> np.arange(L - 1, -1, -1)[:, None]) & 1)  # row j holds s_{j+1}
    diagonal = np.zeros(len(configs))
    rows, cols = [configs], [configs]
    for j in range(L):
        nxt = (j + 1) % L
        diagonal = diagonal - (0.25 * delta) * (spins[j] * spins[nxt])
        diagonal = diagonal - (0.5 * h_z) * spins[j]
        flip = configs[spins[j] != spins[nxt]]
        rows.append(flip)
        cols.append(flip ^ ((1 << (L - 1 - j)) | (1 << (L - 1 - nxt))))
    rows = np.concatenate(rows)
    values = np.full(len(rows), -0.5)
    values[: len(configs)] = diagonal
    return rows, np.concatenate(cols), values


@lru_cache(maxsize=8)
def xxz_dense_hamiltonian(L: int, delta: float, h_z: float = 0.0):
    """Sparse full-space XXZ Hamiltonian (guarded), built from configuration
    bits by :func:`_bond_entries`.

    Repeated entries are summed and explicit zeros dropped, so the CSR arrays
    equal those of the summed sparse Pauli products bit for bit.  The sector
    blocks do not use it; it is the full-space reference the tests and demos
    diagonalize, and the one place this module loads scipy.
    """
    rows, cols, values = _bond_entries(L, delta, h_z)
    import scipy.sparse

    ham = scipy.sparse.csr_matrix((values.astype(complex), (rows, cols)), shape=(2**L, 2**L))
    ham.eliminate_zeros()
    return ham


def xxz_block_hamiltonian(sector: XXZSector, delta: float, h_z: float = 0.0) -> np.ndarray:
    """Hermitian dim x dim Hamiltonian block of the sector.

    block[a, b] = sum over H[c, c'] with c, c' in the sector of
    conj(B[c, a]) H[c, c'] B[c', b]: one ``np.add.at`` over the entries of H
    in the sector's rows whose columns lie in the sector too (B has no
    other rows).  Repeated entries, as the two bonds of L = 2 give, sum on
    their own.
    """
    configs, orbit, amp = sector.configs, sector.orbit, sector.amplitudes
    rows, cols, values = _bond_entries(sector.L, float(delta), float(h_z), configs)
    position = np.full(2**sector.L, -1)
    position[configs] = np.arange(len(configs))
    r, c = position[rows], position[cols]
    keep = c >= 0
    r, c = r[keep], c[keep]
    block = np.zeros((sector.dim, sector.dim), dtype=complex)
    np.add.at(block, (orbit[r], orbit[c]), amp[r].conj() * values[keep] * amp[c])
    gap = np.abs(block - block.conj().T).max(initial=0.0)
    if gap > 1e-12:
        raise RuntimeError(f"sector block is not Hermitian (residual {gap:.2e})")
    return (block + block.conj().T) / 2.0


@lru_cache(maxsize=32)
def xxz_eigenstates(sector: XXZSector, delta: float, h_z: float = 0.0):
    """Sector eigenvalues (ascending) and full-space eigenvectors B @ modes.

    Returns read-only (energies, vectors) where vectors holds one 2^L column
    per state, its phase as ``eigh`` leaves it: every distance is
    phase-invariant.  Cached on the sector object itself (sectors hash by
    identity), so repeated calls on one sector diagonalize it once and a
    hand-built sector is diagonalized from its own arrays.  Inside a
    degenerate cluster the eigenbasis is arbitrary, and pair distances
    there are reported as they come out.
    """
    energies, modes = np.linalg.eigh(xxz_block_hamiltonian(sector, delta, h_z))
    full = np.zeros((2**sector.L, sector.dim), dtype=complex)
    full[sector.configs] = sector.amplitudes[:, None] * modes[sector.orbit]
    energies.flags.writeable = full.flags.writeable = False
    return energies, full


def xxz_eigen_rdm(sector: XXZSector, delta: float, state_index: int, ell: int, h_z: float = 0.0) -> np.ndarray:
    """Reduced density matrix of sites 1..ell of one sector eigenstate."""
    energies, full = xxz_eigenstates(sector, delta, h_z)
    if not 0 <= state_index < len(energies):
        raise ValueError(f"state index {state_index} outside 0..{len(energies) - 1}")
    return partial_trace(np.ascontiguousarray(full[:, state_index]), sector.L, ell)


def xxz_pairwise_average(sector: XXZSector, delta: float, ell: int, metric: str, h_z: float = 0.0):
    """All-pairs average subsystem distance within the sector.

    Returns (average, pair_count) over the C(dim, 2) unordered pairs,
    metric 'trace' or 'bures' evaluated on dense reduced density matrices.
    For 'bures' each reduced state is factored as soon as it is built
    (:func:`fgdist.dense.root_factor`) and only the factors are kept, each
    as wide as its state's rank, so the call holds one 2^ell x 2^ell state
    at a time, not dim of them; every pair makes one
    :func:`fgdist.dense.fidelity_dense` call on the two factors: one product
    and one singular-value sum.
    """
    from .dense import fidelity_dense, root_factor, trace_distance

    if sector.dim < 2:
        raise ValueError(f"need at least two states, sector has {sector.dim}")
    if metric not in ("trace", "bures"):
        raise ValueError(f"metric must be 'trace' or 'bures', got {metric!r}")
    energies, full = xxz_eigenstates(sector, delta, h_z)
    states = []
    for i in range(sector.dim):
        rho = partial_trace(np.ascontiguousarray(full[:, i]), sector.L, ell)
        states.append(root_factor(rho) if metric == "bures" else rho)
    total = 0.0
    pairs = 0
    for i in range(sector.dim):
        for j in range(i + 1, sector.dim):
            if metric == "trace":
                total += trace_distance(states[i], states[j])
            else:
                total += math.sqrt(2.0 * (1.0 - fidelity_dense(states[i], states[j])))
            pairs += 1
    return total / pairs, pairs
