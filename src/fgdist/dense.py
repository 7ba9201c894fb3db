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

from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse

from .correlation import CorrelationMatrix, canonical_form
from .errors import GuardExceeded

__all__ = [
    "DENSE_GUARD_DEFAULT",
    "DENSE_HARD_CAP",
    "majorana_operators",
    "site_operator",
    "translation_operator",
    "parity_diagonal",
    "density_from_gamma",
    "density_from_gamma_exponential",
    "gamma_from_density",
    "fidelity_dense",
    "fidelity_dense_product",
    "trace_distance",
    "partial_trace",
]

DENSE_GUARD_DEFAULT = 12
DENSE_HARD_CAP = 14
# eigenvalues of rho sigma below this magnitude count as exact zeros in
# fidelity_dense_product
PRODUCT_EIGENVALUE_FLOOR = 1e-12

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_guard(ell: int, guard: int):
    if guard > DENSE_HARD_CAP:
        raise GuardExceeded(f"guard {guard} above hard cap {DENSE_HARD_CAP}")
    if ell > guard:
        raise GuardExceeded(f"{ell} sites exceed the dense guard of {guard}")


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
    checks it.
    """
    if ell < 1:
        raise ValueError("need at least one mode")
    if ell > DENSE_HARD_CAP:
        raise GuardExceeded(f"{ell} modes exceed the Majorana cap of {DENSE_HARD_CAP}")
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


def density_from_gamma(state: CorrelationMatrix, guard: int = DENSE_GUARD_DEFAULT) -> np.ndarray:
    """Dense density matrix with the given Majorana correlations.

    Built as the commuting product prod_j (1 - g_j i d'_{2j-1} d'_{2j}) / 2
    over the canonical modes d' = O d, which stays finite for pure modes
    (g_j = 1), unlike the exponential form.  Row r of d'_a holds one entry
    per site j, at the column where d_{2j-1} and d_{2j} have theirs:
    O_{a,2j-1} (+-1) + i O_{a,2j} (+-1), exact, so each d'_a is filled
    in place rather than summed from 2 ell dense operators.
    """
    _check_guard(state.ell, guard)
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


def density_from_gamma_exponential(gamma, guard: int = DENSE_GUARD_DEFAULT) -> np.ndarray:
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
    _check_guard(ell, guard)
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


def fidelity_dense(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity as the nuclear norm of sqrt(sigma) sqrt(rho).

    Evaluated as the singular values of C = sqrt(w_s) (V_s^+ V_r) sqrt(w_r)
    with (w, V) the eigensystems of the two states.  Singular values carry
    absolute error ~u, so no accuracy is lost taking them directly as the
    square roots of the sandwich eigenvalues; diagonalizing the sandwich
    itself squares the small values first and loses half the digits for
    nearly pure states.  Exact zero modes contribute exact zero rows here
    rather than sqrt(noise) terms.
    """
    w_r, v_r = np.linalg.eigh(rho)
    w_s, v_s = np.linalg.eigh(sigma)
    # rank-deficient states put +-u noise where exact zeros belong; sqrt of
    # that noise is ~1e-8 per mode, so zero everything below the noise floor
    w_r = np.where(w_r > 1e-13 * max(w_r[-1], 0.0), w_r, 0.0)
    w_s = np.where(w_s > 1e-13 * max(w_s[-1], 0.0), w_s, 0.0)
    cross = (v_s.conj().T @ v_r) * np.sqrt(w_r)
    cross *= np.sqrt(w_s)[:, None]
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


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance (1/2) tr |rho - sigma| of two Hermitian operators."""
    diff = rho - sigma
    dev = np.abs(diff - diff.conj().T).max()
    if dev > 1e-10:
        raise ValueError(f"difference is not Hermitian (deviation {dev:.3e})")
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)
    return float(0.5 * np.abs(w).sum())


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
