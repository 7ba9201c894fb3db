"""Exact Hilbert-space computations used to cross-check the Gaussian algebra.

Conventions.  Site 1 is the leftmost Kronecker factor, i.e. the most
significant bits of the basis index; the y-type string of site j acts as
Z^(j-1) x Y x 1^(L-j).  :func:`_majorana_strings` holds this Jordan-Wigner
convention as one table, d_a = i^p X^x Z^z, and the sparse operators, the
entries :func:`density_from_gamma` fills and the Wick plan of
:func:`density_stack` are all built from it.  Jordan-Wigner strings stay
inside any leading block of sites, which is why subsystems are always the
leading ``ell`` sites here: the Majorana algebra of a leading block closes
on the block.  sigma^z = diag(1, -1) and the mode of site j is occupied
when the spin points down.

Everything in this module scales exponentially with system size and is
guarded.  Trace sweeps build their states with :func:`density_stack` and
compare them with :func:`trace_distance`; :func:`density_from_gamma` and
:func:`fidelity_dense` are the oracles the benchmark's checks, the demos and
the tests hold the polynomial-cost code to.  It is not a way to run large
systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

# canonical_form is not called here, but perfbench/tracing.py wraps the name
# in this namespace
from .correlation import CorrelationMatrix, _state_stack, canonical_form  # noqa: F401
from .errors import GuardExceeded
from .pfaffian import PLAN_CACHE_MODES, popcount, principal_pfaffians

__all__ = [
    "DENSE_GUARD",
    "majorana_operators",
    "density_from_gamma",
    "density_stack",
    "RootEigensystem",
    "root_eigensystem",
    "fidelity_dense",
    "trace_distance",
    "partial_trace",
]

# most sites of any dense 2^ell operator or vector; one 2^12 x 2^12 complex
# matrix is 256 MiB
DENSE_GUARD = 12


def _check_guard(ell: int):
    if ell > DENSE_GUARD:
        raise GuardExceeded(f"{ell} sites exceed the dense guard of {DENSE_GUARD}")


def _majorana_strings(ell: int):
    """The Jordan-Wigner convention, in one place: d_a = i^p X^x Z^z for the
    2 ell Majoranas in interleaved order, as three int32 arrays (x, z, p).
    Site j is bit ell - j.  d_{2j-1} flips that bit under a Z string on the
    sites to its left (p = 0), and d_{2j} = i d_{2j-1} Z_j (p = 1)."""
    p = np.tile(np.array([0, 1], dtype=np.int32), ell)
    x = np.repeat(1 << np.arange(ell - 1, -1, -1, dtype=np.int32), 2)
    return x, 2**ell - (2 - p) * x, p  # z: the bits above x, and x itself for p = 1


def _majorana_rows(ell: int):
    """Column c = r ^ x and sign (-1)^popcount(z & c) of the one entry of
    row r of X^x Z^z, for every Majorana of :func:`_majorana_strings`
    (rows) and basis row r (columns): two (2 ell, 2^ell) arrays."""
    x, z, _ = _majorana_strings(ell)
    columns = np.arange(2**ell, dtype=np.int32) ^ x[:, None]
    return columns, 1.0 - 2.0 * (popcount(z[:, None] & columns) % 2)


@lru_cache(maxsize=8)
def majorana_operators(ell: int):
    """The 2*ell sparse Majorana operators in interleaved order.

    d_{2j-1} = Z..Z X 1..1 and d_{2j} = Z..Z Y 1..1 with the string on the
    j-1 sites to the left.  Cached.  Each is a signed permutation matrix
    built straight from :func:`_majorana_strings`: its CSR form stores one
    entry per row, +-1 for d_{2j-1} and +-i for d_{2j}.  Raises
    :class:`GuardExceeded` above ``DENSE_GUARD`` modes.
    """
    if ell < 1:
        raise ValueError("need at least one mode")
    _check_guard(ell)
    dim = 2**ell
    columns, signs = _majorana_rows(ell)
    data = signs * np.where(_majorana_strings(ell)[2], 1j, 1.0)[:, None] + 0.0  # + 0.0: no -0.0 part
    indptr = np.arange(dim + 1, dtype=np.int32)
    return tuple(scipy.sparse.csr_matrix((d, c, indptr.copy()), shape=(dim, dim)) for d, c in zip(data, columns))


def _canonical_pairs(state: CorrelationMatrix):
    """Pair values g_j, descending and clamped to 1, and the rotation O whose
    rows 2j-1, 2j are the canonical pair of g_j: sqrt(2) (Re u, Im u) for
    the eigenvector u of -g_j, one of the ell smallest eigenvalues of
    Gamma = i m.  For g_j > 0, u is orthogonal to its conjugate, an
    eigenvector of +g_j, so these rows are orthonormal; for g_j = 0 they
    need not be, and the pair's factor 1 - g_j i d'd' is 1 whatever they
    are.  Raises ValueError, as ``state.pair_values`` does, for a pair
    value beyond ``EIGENVALUE_SLACK`` above 1."""
    state.pair_values
    w, v = np.linalg.eigh(1j * state.m)
    rotation = np.sqrt(2.0) * np.ascontiguousarray(v[:, : state.ell]).view(float).T
    return np.minimum(-w[: state.ell], 1.0), rotation


def density_from_gamma(state: CorrelationMatrix) -> np.ndarray:
    """Dense density matrix with the given Majorana correlations.

    Built as the commuting product prod_j (1 - g_j i d'_{2j-1} d'_{2j}) / 2
    over the canonical modes d' = O d of :func:`_canonical_pairs`, which
    stays finite for pure modes (g_j = 1), unlike the exponential form, and
    takes one ``eigh``, no Schur form, so degenerate pair values need no
    care.  Row r of d'_a holds one entry per site j, at the column where
    d_{2j-1} and d_{2j} have theirs: O_{a,2j-1} (+-1) + i O_{a,2j} (+-1),
    exact, so each d'_a is filled in place rather than summed from 2 ell
    dense operators.
    """
    _check_guard(state.ell)
    values, rot = _canonical_pairs(state)
    dim = 2**state.ell
    columns, signs = _majorana_rows(state.ell)
    flat = np.arange(dim) * dim + columns[0::2]  # d_{2j-1} and d_{2j} flip the same bit
    rho = np.eye(dim, dtype=complex) * 2.0**-state.ell
    for j, g in enumerate(values):
        coeffs = rot[2 * j : 2 * j + 2, :, None]
        pair = np.zeros((2, dim * dim), dtype=complex)
        # + 0.0: a zero coefficient gives +0.0, the zero a sum into zeros gives
        pair.real[:, flat] = coeffs[:, 0::2] * signs[0::2] + 0.0
        pair.imag[:, flat] = coeffs[:, 1::2] * signs[1::2] + 0.0
        da, db = pair.reshape(2, dim, dim)
        rho = rho @ (np.eye(dim) - g * 1j * (da @ db))
    return rho


def density_stack(m) -> np.ndarray:
    """Dense density matrices of a stack of Gaussian states, shape (n, 2 ell,
    2 ell) of correlation matrices m, from their Wick expansion

        rho = 2^-ell sum_S (-i)^(|S|/2) Pf(m_S) d_S

    over the even subsets S of the 2 ell Majoranas.  Every string d_S is a
    unit phase times X^x Z^z, whose entry at (c ^ x, c) is (-1)^popcount(z & c);
    so for each flip mask x the entries rho[c ^ x, c] are one Walsh-Hadamard
    transform over the Z masks z of the phased Pfaffians.  Odd flip masks
    change the fermion parity, and their entries are exact zeros.

    O(ell 4^ell) operations per state and no canonical form, against the
    O(ell 8^ell) product of :func:`density_from_gamma`, which stays as the
    independent oracle for this route.  Each state's matrix comes out bit for
    bit the same whatever stack it is built in.  Returns (n, 2^ell, 2^ell).
    """
    m = _state_stack(m)
    ell = m.shape[1] // 2
    _check_guard(ell)
    masks, slots, signs, cells = _wick_plan(ell) if ell <= PLAN_CACHE_MODES else _wick_plan.__wrapped__(ell)
    count, dim = len(m), 2**ell
    phased = np.zeros((count, dim // 2, dim), dtype=complex)
    phased.view(float).reshape(count, -1)[:, slots] = principal_pfaffians(m)[:, masks] * signs
    spectrum = _walsh_hadamard(phased)
    rho = np.zeros((count, dim, dim), dtype=complex)
    rho.reshape(count, -1)[:, cells] = spectrum.reshape(count, -1)
    return rho


@lru_cache(maxsize=PLAN_CACHE_MODES)
def _wick_plan(ell: int):
    """Where :func:`density_stack` puts each term; four flat arrays.

    ``masks`` are the even subsets S (bit a for Majorana a + 1).  Majorana
    strings are multiplied left to right as i^p X^x Z^z, each d_a taken
    from :func:`_majorana_strings`, and Z^z X^x' = (-1)^popcount(z & x')
    X^x' Z^z.  ``slots`` is the float index of the term of S in the
    (2^(ell-1), 2^ell) complex array of (even flip mask, Z mask): its real
    part for a real phase, its imaginary part otherwise.  ``signs`` is the
    sign of that part times 2^-ell.  ``cells`` is the flat index
    (c ^ x) 2^ell + c in rho of every (even x, c) entry of the transform.
    """
    n, dim = 2 * ell, 2**ell
    # int32 throughout: 4^ell <= 2^24 under the guard
    masks = np.flatnonzero(popcount(np.arange(2**n, dtype=np.int32)) % 2 == 0).astype(np.int32)
    flips = np.zeros(masks.shape, dtype=np.int32)
    zs = np.zeros(masks.shape, dtype=np.int32)
    powers = np.zeros(masks.shape, dtype=np.int32)  # of i
    for a, (x, z, p) in enumerate(zip(*_majorana_strings(ell))):
        has = (masks >> a) & 1
        powers += has * (p + 2 * ((zs & x) != 0))  # x is one bit
        flips ^= has * x
        zs ^= has * z
    powers = (powers - popcount(masks) // 2) % 4
    parities = popcount(np.arange(dim, dtype=np.int32)) % 2
    rows = np.cumsum(1 - parities, dtype=np.int32) - 1  # row of each even flip mask
    slots = 2 * (rows[flips] * dim + zs) + powers % 2
    signs = np.where(powers < 2, 2.0**-ell, -(2.0**-ell))
    columns = np.arange(dim, dtype=np.int32)
    cells = ((np.flatnonzero(parities == 0)[:, None] ^ columns) * dim + columns).ravel()
    return masks, slots, signs, cells


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis (length
    2^k): out[c] = sum_z (-1)^popcount(z & c) v[z], by k butterfly passes.
    Overwrites ``v``."""
    length = v.shape[-1]
    out = np.empty_like(v)
    half = 1
    while half < length:
        a = v.reshape(-1, length // (2 * half), 2, half)
        b = out.reshape(a.shape)
        np.add(a[:, :, 0], a[:, :, 1], out=b[:, :, 0])
        np.subtract(a[:, :, 0], a[:, :, 1], out=b[:, :, 1])
        v, out = out, v
        half *= 2
    return v


@dataclass(frozen=True)
class RootEigensystem:
    """Eigenvectors ``v`` (columns) of a density matrix and the square roots
    ``sqrt_w`` of its eigenvalues, those below the noise floor set to zero."""

    sqrt_w: np.ndarray
    v: np.ndarray


def root_eigensystem(rho: np.ndarray) -> RootEigensystem:
    """Diagonalize a density matrix once for any number of
    :func:`fidelity_dense` calls."""
    w, v = np.linalg.eigh(rho)
    # rank-deficient states put +-u noise where exact zeros belong; sqrt of
    # that noise is ~1e-8 per mode, so zero everything below the noise floor
    w = np.where(w > 1e-13 * max(w[-1], 0.0), w, 0.0)
    return RootEigensystem(np.sqrt(w), v)


def fidelity_dense(rho: np.ndarray | RootEigensystem, sigma: np.ndarray | RootEigensystem) -> float:
    """Uhlmann fidelity as the nuclear norm of sqrt(sigma) sqrt(rho).

    Evaluated as the singular values of C = sqrt(w_s) (V_s^+ V_r) sqrt(w_r)
    with (w, V) the eigensystems of the two states.  Singular values carry
    absolute error ~u, so no accuracy is lost taking them directly as the
    square roots of the sandwich eigenvalues; diagonalizing the sandwich
    itself squares the small values first and loses half the digits for
    nearly pure states.  Exact zero modes contribute exact zero rows here
    rather than sqrt(noise) terms.

    Each argument is a density matrix or its :class:`RootEigensystem`; a
    matrix goes through :func:`root_eigensystem` first, so a caller that
    compares one state with many diagonalizes it once and passes the
    eigensystem to every call, with the same result bit for bit.
    """
    r, s = (x if isinstance(x, RootEigensystem) else root_eigensystem(x) for x in (rho, sigma))
    cross = (s.v.conj().T @ r.v) * r.sqrt_w
    cross *= s.sqrt_w[:, None]
    sv = np.linalg.svd(cross, compute_uv=False)
    return float(min(sv.sum(), 1.0))


def trace_distance(rho: np.ndarray, sigma: np.ndarray):
    """Trace distance (1/2) tr |rho - sigma| of two Hermitian operators.

    Two equally shaped (..., d, d) stacks give the distance of each pair of
    matrices, as one stacked ``eigvalsh``; each distance has the same bits
    as for that pair alone.  Returns a float for two matrices and an array
    of the stack shape otherwise.
    """
    diff = rho - sigma
    hermitian = np.conjugate(diff.swapaxes(-1, -2))
    hermitian += diff
    diff *= 2.0
    diff -= hermitian  # diff - diff^+, for the check only
    dev = np.abs(diff).max()
    if dev > 1e-10:
        raise ValueError(f"difference is not Hermitian (deviation {dev:.3e})")
    del diff
    hermitian /= 2.0
    w = np.linalg.eigvalsh(hermitian)
    distance = 0.5 * np.abs(w).sum(axis=-1)
    return float(distance) if distance.ndim == 0 else distance


def partial_trace(state: np.ndarray, length: int, keep: int) -> np.ndarray:
    """Reduced density matrix of the leading ``keep`` sites.

    ``state`` is either a pure-state vector of length 2^length or a density
    matrix.  Only leading blocks are supported (see the module docstring).
    """
    if not 1 <= keep <= length:
        raise ValueError(f"cannot keep {keep} of {length} sites")
    dim_a = 2**keep
    dim_b = 2 ** (length - keep)
    if state.ndim == 1:
        if state.shape[0] != dim_a * dim_b:
            raise ValueError("vector length does not match the site count")
        psi = state.reshape(dim_a, dim_b)
        return psi @ psi.conj().T
    if state.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError("matrix shape does not match the site count")
    rho = state.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("ajbj->ab", rho)
