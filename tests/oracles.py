"""Dense oracles that only the tests use.

Exact Hilbert-space constructions with the conventions of
:mod:`fgdist.dense`: single-site Pauli operators, the chain translation and
the parity diagonal, which :mod:`ising_dense` builds on, and the dense
matrix of a state's two parity blocks; the exponential form
of a Gaussian operator and its inverse, Majorana correlations read back from
a dense operator; and the product-spectrum fidelity, a second dense route.
Everything here scales exponentially with system size.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from fgdist.correlation import CorrelationMatrix
from fgdist.dense import _check_guard, majorana_operators

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# eigenvalues of rho sigma below this magnitude count as exact zeros in
# fidelity_dense_product
PRODUCT_EIGENVALUE_FLOOR = 1e-12


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


def embed_parity_blocks(blocks: np.ndarray) -> np.ndarray:
    """Dense (..., 2^ell, 2^ell) matrices from the (..., 2, 2^(ell-1),
    2^(ell-1)) parity blocks of :func:`fgdist.dense.density_stack`: block 0
    on the basis states of even parity and block 1 on those of odd parity,
    each in ascending index order, and zeros between them."""
    length = int(np.log2(blocks.shape[-1])) + 1
    parity = parity_diagonal(length)
    out = np.zeros(blocks.shape[:-3] + (2**length, 2**length), dtype=blocks.dtype)
    for p, sign in enumerate((1.0, -1.0)):
        idx = np.flatnonzero(parity == sign)
        out[..., idx[:, None], idx] = blocks[..., p, :, :]
    return out


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


def fidelity_dense_product(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Fidelity as sum sqrt(eig(rho sigma)), as a cross-check path.

    Only trustworthy when neither state is close to pure; the non-normal
    product spectrum degrades near rank deficiency.
    """
    roots = _clamped_sqrt_eigvals(rho @ sigma)
    total = roots.sum()
    return float(min(total.real, 1.0))
