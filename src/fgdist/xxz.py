"""XXZ chain in fixed momentum and magnetization sectors.

H = -(1/4) sum_j (X_j X_{j+1} + Y_j Y_{j+1} + Delta Z_j Z_{j+1})
    - (h_z/2) sum_j Z_j,   periodic, j = 1..L.

The chain conserves total magnetization (n_down down spins) and momentum.
A sector basis is built from translation orbits: each orbit keeps its
lexicographically smallest configuration as representative, and an orbit
of period R contributes to momentum K iff K * R = 0 mod L.  The Bloch
vector of a representative a is

    |a(K)> = R^{-1/2} sum_{t=0}^{R-1} w^t |T^t a>,    w = e^{+i 2 pi K / L},

where T moves the content of site j to site j+1 (site 1 is the most
significant bit).  With this phase the one-site translation acts as
T |a(K)> = e^{-i 2 pi K / L} |a(K)>, the same eigenvalue convention the
free-fermion momentum labels carry.

The full-space H is a sparse matrix built straight from the bits of the
2^L configurations (flip-flop entries plus a diagonal), equal entry for
entry and bit for bit to the sum of sparse Pauli products written above.
Blocks are assembled as B^dag H B with B the sparse matrix of Bloch
columns; eigenvectors are lifted back to the full space the same way, so
reduced density matrices come from ordinary partial traces.  The field
h_z commutes with everything and only shifts a fixed-magnetization block
uniformly; it is accepted and verified but defaults to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

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


@dataclass
class XXZSector:
    """Momentum-magnetization sector basis: orbit representatives + periods."""

    L: int
    K: int
    n_down: int
    representatives: np.ndarray
    periods: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.representatives)


def xxz_sector_basis(L: int, K: int, n_down: int) -> XXZSector:
    """Orbit representatives and periods of the (K, n_down) sector.

    Walks all 2^L configurations, so it checks the dense guard first: every
    consumer of a sector builds 2^L-row Bloch vectors anyway.
    """
    _check_guard(L)
    if not 0 <= n_down <= L:
        raise ValueError(f"n_down must lie in 0..{L}, got {n_down}")
    if not 0 <= K < L:
        raise ValueError(f"momentum must lie in 0..{L - 1}, got {K}")
    reps, periods = [], []
    for config in range(2**L):
        if bin(config).count("1") != n_down:
            continue
        # walk the orbit; keep only if config is its minimum
        t, period = translate_bits(config, L), 1
        smallest = True
        while t != config:
            if t < config:
                smallest = False
                break
            t = translate_bits(t, L)
            period += 1
        if smallest and (K * period) % L == 0:
            reps.append(config)
            periods.append(period)
    return XXZSector(L, K, n_down, np.array(reps, dtype=np.int64), np.array(periods, dtype=np.int64))


def _bloch_matrix(sector: XXZSector) -> sp.csr_matrix:
    """Sparse 2^L x dim matrix whose columns are the normalized Bloch vectors."""
    L, K = sector.L, sector.K
    rows, cols, vals = [], [], []
    omega = np.exp(2j * np.pi * K / L)
    for col, (rep, period) in enumerate(zip(sector.representatives, sector.periods)):
        t = int(rep)
        for step in range(int(period)):
            rows.append(t)
            cols.append(col)
            vals.append(omega**step / np.sqrt(period))
            t = translate_bits(t, L)
    return sp.csr_matrix((vals, (rows, cols)), shape=(2**sector.L, sector.dim))


@lru_cache(maxsize=8)
def xxz_dense_hamiltonian(L: int, delta: float, h_z: float = 0.0) -> sp.csr_matrix:
    """Sparse full-space XXZ Hamiltonian (guarded), built from configuration bits.

    Site j is bit L - j of a configuration, with Z eigenvalue s_j = +1 for a
    0 bit.  X_j X_{j+1} + Y_j Y_{j+1} is 2 between configurations that differ
    by swapping unequal spins j, j+1 and 0 otherwise, so each such bond puts
    -0.5 off the diagonal.  The diagonal is accumulated bond by bond in the
    order of the Pauli sum, d - (0.25 delta) s_j s_{j+1} and then
    d - (0.5 h_z) s_j, and explicit zeros are dropped, so the CSR arrays equal
    those of the summed sparse Pauli products bit for bit.  A periodic chain
    needs two sites: at L = 1 the only bond would join site 1 to itself.
    """
    _check_guard(L)
    if L < 2:
        raise ValueError(f"the periodic XXZ chain needs at least two sites, got L = {L}")
    configs = np.arange(2**L, dtype=np.int64)
    spins = 1 - 2 * ((configs >> np.arange(L - 1, -1, -1)[:, None]) & 1)  # row j holds s_{j+1}
    diagonal = np.zeros(2**L)
    rows, cols = [configs], [configs]
    for j in range(L):
        nxt = (j + 1) % L
        diagonal = diagonal - (0.25 * delta) * (spins[j] * spins[nxt])
        diagonal = diagonal - (0.5 * h_z) * spins[j]
        flip = configs[spins[j] != spins[nxt]]
        rows.append(flip)
        cols.append(flip ^ ((1 << (L - 1 - j)) | (1 << (L - 1 - nxt))))
    rows = np.concatenate(rows)
    values = np.full(len(rows), -0.5, dtype=complex)
    values[: 2**L] = diagonal
    ham = sp.csr_matrix((values, (rows, np.concatenate(cols))), shape=(2**L, 2**L))
    ham.eliminate_zeros()
    return ham


def xxz_block_hamiltonian(sector: XXZSector, delta: float, h_z: float = 0.0) -> np.ndarray:
    """Hermitian dim x dim Hamiltonian block of the sector."""
    if sector.dim == 0:
        return np.zeros((0, 0))
    bloch = _bloch_matrix(sector)
    block = (bloch.conj().T @ xxz_dense_hamiltonian(sector.L, float(delta), float(h_z)) @ bloch).toarray()
    gap = np.abs(block - block.conj().T).max()
    if gap > 1e-12:
        raise RuntimeError(f"sector block is not Hermitian (residual {gap:.2e})")
    return (block + block.conj().T) / 2.0


@lru_cache(maxsize=32)
def _eigensystem(L: int, K: int, n_down: int, delta: float, h_z: float):
    sector = xxz_sector_basis(L, K, n_down)
    block = xxz_block_hamiltonian(sector, delta, h_z)
    energies, modes = np.linalg.eigh(block)
    full = _bloch_matrix(sector) @ modes                     # 2^L x dim columns
    # deterministic phase: largest amplitude of each column real positive
    lead = np.argmax(np.abs(full), axis=0)
    phase = full[lead, np.arange(full.shape[1])]
    full = full * (np.abs(phase) / phase)
    return energies, full


def xxz_eigenstates(sector: XXZSector, delta: float, h_z: float = 0.0):
    """Sector eigenvalues (ascending) and phase-fixed full-space eigenvectors.

    Returns (energies, vectors) where vectors holds one 2^L column per
    state.  Inside a degenerate cluster the eigenbasis is arbitrary, and
    pair distances there are reported as they come out.
    """
    return _eigensystem(sector.L, sector.K, sector.n_down, float(delta), float(h_z))


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
    For 'bures' each reduced state is diagonalized once per call
    (:func:`fgdist.dense.root_eigensystem`), and every pair still makes one
    :func:`fgdist.dense.fidelity_dense` call on the two eigensystems.
    """
    from .dense import fidelity_dense, root_eigensystem, trace_distance

    if sector.dim < 2:
        raise ValueError(f"need at least two states, sector has {sector.dim}")
    if metric not in ("trace", "bures"):
        raise ValueError(f"metric must be 'trace' or 'bures', got {metric!r}")
    energies, full = xxz_eigenstates(sector, delta, h_z)
    rdms = [partial_trace(np.ascontiguousarray(full[:, i]), sector.L, ell) for i in range(sector.dim)]
    if metric == "bures":
        rdms = [root_eigensystem(rho) for rho in rdms]
    total = 0.0
    pairs = 0
    for i in range(sector.dim):
        for j in range(i + 1, sector.dim):
            if metric == "trace":
                total += trace_distance(rdms[i], rdms[j])
            else:
                fid = min(1.0, fidelity_dense(rdms[i], rdms[j]))
                total += np.sqrt(2.0 * (1.0 - fid))
            pairs += 1
    return total / pairs, pairs
