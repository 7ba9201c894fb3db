"""Exact Hilbert-space computations used to cross-check the Gaussian algebra.

Conventions.  Site 1 is the leftmost Kronecker factor, i.e. the most
significant bits of the basis index; the y-type string of site j acts as
Z^(j-1) x Y x 1^(L-j).  Jordan-Wigner strings therefore stay inside any
leading block of sites, which is why subsystems are always the leading
``ell`` sites here: the Majorana algebra of a leading block closes on the
block.  sigma^z = diag(1, -1) and the mode of site j is occupied when the
spin points down.

Everything in this module scales exponentially with system size and is
guarded; it exists as an oracle for the polynomial-cost code, not as a way
to run large systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse

from .correlation import CorrelationMatrix, canonical_form
from .errors import GuardExceeded
from .pfaffian import PLAN_CACHE_MODES, popcount, principal_pfaffians

__all__ = [
    "DENSE_GUARD",
    "majorana_operators",
    "site_operator",
    "translation_operator",
    "parity_diagonal",
    "density_from_gamma",
    "density_stack",
    "density_from_gamma_exponential",
    "gamma_from_density",
    "RootEigensystem",
    "root_eigensystem",
    "fidelity_dense",
    "fidelity_dense_product",
    "trace_distance",
    "partial_trace",
]

# most sites of any dense 2^ell operator or vector; one 2^12 x 2^12 complex
# matrix is 256 MiB
DENSE_GUARD = 12
# eigenvalues of rho sigma below this magnitude count as exact zeros in
# fidelity_dense_product
PRODUCT_EIGENVALUE_FLOOR = 1e-12

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_guard(ell: int):
    if ell > DENSE_GUARD:
        raise GuardExceeded(f"{ell} sites exceed the dense guard of {DENSE_GUARD}")


def site_operator(label: str, site: int, length: int) -> scipy.sparse.csr_matrix:
    """Sparse single-site Pauli ``label`` at ``site`` (1-based) of a chain.

    Built as 1_{2^(site-1)} x P x 1_{2^(length-site)}: two Kronecker
    products, whose entries are the Pauli entries times exact ones.
    """
    if not 1 <= site <= length:
        raise ValueError(f"site {site} outside chain of length {length}")
    head = scipy.sparse.identity(2 ** (site - 1), dtype=complex, format="csr")
    tail = scipy.sparse.identity(2 ** (length - site), dtype=complex, format="csr")
    op = scipy.sparse.kron(head, scipy.sparse.csr_matrix(PAULI[label]), format="csr")
    return scipy.sparse.kron(op, tail, format="csr")


@lru_cache(maxsize=8)
def majorana_operators(ell: int):
    """The 2*ell sparse Majorana operators in interleaved order.

    d_{2j-1} = Z..Z X 1..1 and d_{2j} = Z..Z Y 1..1 with the string on the
    j-1 sites to the left.  Cached.  Each operator is a signed permutation
    matrix: its CSR form stores exactly one entry per row.  The two
    operators of one site share their column indices (both flip the bit of
    site j); the entries of d_{2j-1} are real (+-1) and those of d_{2j}
    imaginary (+-i).  ``density_from_gamma`` relies on this structure and
    checks it.  Raises :class:`GuardExceeded` above ``DENSE_GUARD`` modes.
    """
    if ell < 1:
        raise ValueError("need at least one mode")
    _check_guard(ell)
    ops = []
    eye = scipy.sparse.identity(1, dtype=complex, format="csr")
    string = eye
    for j in range(ell):
        tail = scipy.sparse.identity(2 ** (ell - j - 1), dtype=complex, format="csr")
        for label in ("X", "Y"):
            op = scipy.sparse.kron(
                scipy.sparse.kron(string, scipy.sparse.csr_matrix(PAULI[label]), format="csr"),
                tail,
                format="csr",
            )
            ops.append(op)
        string = scipy.sparse.kron(string, scipy.sparse.csr_matrix(PAULI["Z"]), format="csr")
    return tuple(ops)


def translation_operator(length: int) -> scipy.sparse.csr_matrix:
    """Permutation moving the content of site j to site j+1 (cyclically)."""
    dim = 2**length
    old = np.arange(dim, dtype=np.int64)
    new = (old >> 1) | ((old & 1) << (length - 1))
    data = np.ones(dim)
    return scipy.sparse.csr_matrix((data, (new, old)), shape=(dim, dim))


def parity_diagonal(length: int) -> np.ndarray:
    """Diagonal of prod_j sigma^z_j: +1 for even numbers of down spins."""
    idx = np.arange(2**length, dtype=np.int64)
    pop = np.array([bin(i).count("1") for i in idx])
    return np.where(pop % 2 == 0, 1.0, -1.0)


def density_from_gamma(state: CorrelationMatrix) -> np.ndarray:
    """Dense density matrix with the given Majorana correlations.

    Built as the commuting product prod_j (1 - g_j i d'_{2j-1} d'_{2j}) / 2
    over the canonical modes d' = O d, which stays finite for pure modes
    (g_j = 1), unlike the exponential form.  Row r of d'_a holds one entry
    per site j, at the column where d_{2j-1} and d_{2j} have theirs:
    O_{a,2j-1} (+-1) + i O_{a,2j} (+-1), exact, so each d'_a is filled
    in place rather than summed from 2 ell dense operators.
    """
    _check_guard(state.ell)
    form = canonical_form(state)
    flat, x_signs, y_signs = _majorana_pattern(state.ell)
    dim = 2**state.ell
    rho = np.eye(dim, dtype=complex) * 2.0**-state.ell
    rot = form.rotation
    for j, g in enumerate(form.pair_values):
        coeffs = rot[2 * j : 2 * j + 2, :, None]
        pair = np.zeros((2, dim * dim), dtype=complex)
        # + 0.0: a zero coefficient gives +0.0, the zero a sum into zeros gives
        pair.real[:, flat] = coeffs[:, 0::2] * x_signs + 0.0
        pair.imag[:, flat] = coeffs[:, 1::2] * y_signs + 0.0
        da, db = pair.reshape(2, dim, dim)
        rho = rho @ (np.eye(dim) - g * 1j * (da @ db))
    return rho


@lru_cache(maxsize=8)
def _majorana_pattern(ell: int):
    """Per site j (rows) and basis row r (columns) of ``majorana_operators(ell)``:
    the flat index r * 2^ell + c of the one entry of row r of d_{2j-1} and
    d_{2j}, the real entry of d_{2j-1} and the imaginary part of the entry of
    d_{2j}.  Three (ell, 2^ell) arrays.

    Raises if the operators lack the structure this relies on.
    """
    ops = majorana_operators(ell)
    dim = 2**ell
    one_per_row = np.arange(dim + 1)
    flat = np.empty((ell, dim), dtype=np.int64)
    x_signs = np.empty((ell, dim))
    y_signs = np.empty((ell, dim))
    for j in range(ell):
        x_op, y_op = ops[2 * j], ops[2 * j + 1]
        if not (np.array_equal(x_op.indptr, one_per_row) and np.array_equal(y_op.indptr, one_per_row)):
            raise ValueError(f"Majoranas of site {j + 1} do not store one entry per row")
        if not np.array_equal(x_op.indices, y_op.indices):
            raise ValueError(f"Majoranas of site {j + 1} do not share their columns")
        if np.any(x_op.data.imag != 0.0) or np.any(y_op.data.real != 0.0):
            raise ValueError(f"Majoranas of site {j + 1} are not real and imaginary")
        flat[j] = np.arange(dim) * dim + x_op.indices
        x_signs[j] = x_op.data.real
        y_signs[j] = y_op.data.imag
    if np.unique(flat).size != flat.size:
        raise ValueError("Majoranas of two sites share an entry")
    return flat, x_signs, y_signs


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
    m = np.asarray(m, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] % 2 or not m.shape[1]:
        raise ValueError(f"need a stack of 2 ell x 2 ell correlation matrices, got shape {m.shape}")
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
    strings are multiplied left to right as i^p X^x Z^z with site j at bit
    ell - j, and Z^z X^x' = (-1)^popcount(z & x') X^x' Z^z.  ``slots`` is
    the float index of the term of S in the (2^(ell-1), 2^ell) complex array
    of (even flip mask, Z mask): its real part for a real phase, its
    imaginary part otherwise.  ``signs`` is the sign of that part times
    2^-ell.  ``cells`` is the flat index (c ^ x) 2^ell + c in rho of every
    (even x, c) entry of the transform.
    """
    n, dim = 2 * ell, 2**ell
    # int32 throughout: 4^ell <= 2^24 under the guard
    masks = np.flatnonzero(popcount(np.arange(2**n, dtype=np.int32)) % 2 == 0).astype(np.int32)
    flips = np.zeros(masks.shape, dtype=np.int32)
    zs = np.zeros(masks.shape, dtype=np.int32)
    powers = np.zeros(masks.shape, dtype=np.int32)  # of i
    for a in range(n):
        bit = 1 << (ell - 1 - a // 2)
        z = ((dim - 1) ^ (2 * bit - 1)) | (bit if a % 2 else 0)
        has = (masks >> a) & 1
        powers += has * ((a % 2) + 2 * ((zs & bit) != 0))
        flips ^= has * bit
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


def density_from_gamma_exponential(gamma) -> np.ndarray:
    """Dense Gaussian operator exp(-(1/4) sum W_mn d_m d_n) / Z.

    W = 2 artanh(Gamma); valid only when no eigenvalue of Gamma sits at +-1.
    Accepts a CorrelationMatrix or a complex antisymmetric matrix (the
    latter covers non-Hermitian Gaussian operators such as normalized state
    products).  The analytic normalization Z = sqrt(det(2 (1+Gamma)^{-1}))
    is checked against the numeric trace.
    """
    if isinstance(gamma, CorrelationMatrix):
        gamma = 1j * gamma.m
    gamma = np.asarray(gamma, dtype=complex)
    n = gamma.shape[0]
    ell = n // 2
    _check_guard(ell)
    eye = np.eye(n)
    w = scipy.linalg.logm((eye + gamma) @ np.linalg.inv(eye - gamma))
    ops = majorana_operators(ell)
    dim = 2**ell
    exponent = np.zeros((dim, dim), dtype=complex)
    for a in range(n):
        dense_a = ops[a].toarray()
        for b in range(n):
            if a != b and w[a, b] != 0.0:
                exponent += w[a, b] * (dense_a @ ops[b].toarray())
    rho = scipy.linalg.expm(-exponent / 4.0)
    trace = np.trace(rho)
    z_analytic = np.sqrt(np.linalg.det(2.0 * np.linalg.inv(eye + gamma)))
    if abs(trace - z_analytic) > 1e-8 * abs(trace):
        raise ValueError(
            f"normalization mismatch: trace {trace:.6g} vs analytic {z_analytic:.6g}"
        )
    return rho / trace


def gamma_from_density(rho: np.ndarray):
    """Majorana correlation matrix tr(rho d_a d_b) - delta_ab of a dense operator.

    Returns a CorrelationMatrix for Hermitian rho; for non-Hermitian input
    (for example a normalized product of two states) returns the complex
    antisymmetric matrix itself.
    """
    dim = rho.shape[0]
    ell = int(round(np.log2(dim)))
    if 2**ell != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    ops = majorana_operators(ell)
    n = 2 * ell
    gamma = np.zeros((n, n), dtype=complex)
    rho_t = np.ascontiguousarray(rho.T)
    for a in range(n):
        for b in range(n):
            prod = ops[a] @ ops[b]
            gamma[a, b] = prod.multiply(rho_t).sum()
            if a == b:
                gamma[a, b] -= np.trace(rho)
    hermitian = np.abs(rho - rho.conj().T).max() < 1e-10
    if hermitian:
        m = gamma.imag
        if np.abs(gamma.real).max() > 1e-9:
            raise ValueError("correlations of a Hermitian state should be imaginary")
        return CorrelationMatrix((m - m.T) / 2.0, validate=False)
    return (gamma - gamma.T) / 2.0


def _clamped_sqrt_eigvals(mat: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvals(mat)
    if lam.real.min() < -1e-8:
        raise ValueError(f"operator product eigenvalue {lam.real.min():.3e} too negative")
    lam = np.where(np.abs(lam) < PRODUCT_EIGENVALUE_FLOOR, 0.0, lam)
    lam = np.where(lam.real < 0.0, lam - lam.real, lam)
    return np.sqrt(lam)


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


def fidelity_dense_product(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Fidelity as sum sqrt(eig(rho sigma)), as a cross-check path.

    Only trustworthy when neither state is close to pure; the non-normal
    product spectrum degrades near rank deficiency.
    """
    roots = _clamped_sqrt_eigvals(rho @ sigma)
    total = roots.sum()
    return float(min(total.real, 1.0))


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
