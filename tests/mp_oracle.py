"""High-precision fidelity oracle for Gaussian states of up to three modes.

The density matrix comes from the Wick expansion

    rho = 2^-ell sum_S (-i)^(|S|/2) Pf(m_S) d_S

over the even subsets S of the 2 ell Majoranas, with the Pfaffian table of
:func:`fgdist.pfaffian.principal_pfaffians` run on ``mpmath.mpf`` entries and
the exact Majorana strings d_S of :func:`fgdist.dense.majorana_operators`
(every entry 0, +-1 or +-i).  The float64 inputs convert to mpf exactly, so
the only rounding is mpmath's, at ``dps`` digits (40 by default).  The
fidelity is tr sqrt(sqrt(rho_1) rho_2 sqrt(rho_1)), both square roots taken
from ``mpmath.eighe``: ``mpmath.sqrtm`` does not converge on the nearly
singular sandwiches of nearly pure states.  Eigenvalues come out to about
10^-dps absolute, so a distance D between states whose smallest density
matrix eigenvalues are p needs roughly dps > 2 log10(1 / D) - log10(p) to be
resolved.  Nothing here shares code with the float64 kernel beyond the
Pfaffian table.
"""

from __future__ import annotations

import itertools

import mpmath
import numpy as np

from fgdist.dense import majorana_operators
from fgdist.pfaffian import principal_pfaffians

DIGITS = 40
MAX_MODES = 3


def _strings(ell: int) -> dict:
    """Every even Majorana string d_S as {mask: exact complex numpy matrix}."""
    ops = [op.toarray() for op in majorana_operators(ell)]
    strings = {}
    for size in range(0, 2 * ell + 1, 2):
        for subset in itertools.combinations(range(2 * ell), size):
            product = np.eye(2**ell, dtype=complex)
            for a in subset:
                product = product @ ops[a]
            strings[sum(1 << a for a in subset)] = product
    return strings


def wick_density(m, dps: int = DIGITS) -> mpmath.matrix:
    """Density matrix of the state with correlation matrix ``m`` (float64,
    2 ell x 2 ell, ell <= MAX_MODES), at ``dps`` digits."""
    m = np.asarray(m, dtype=float)
    ell = m.shape[0] // 2
    if not 1 <= ell <= MAX_MODES:
        raise ValueError(f"the oracle takes 1 to {MAX_MODES} modes, got {ell}")
    dim = 2**ell
    with mpmath.workdps(dps):
        pf = principal_pfaffians(np.vectorize(mpmath.mpf, otypes=[object])(m))
        rho = mpmath.zeros(dim, dim)
        for mask, string in _strings(ell).items():
            phase = (-1j) ** (bin(mask).count("1") // 2)  # exactly 1, -1j, -1 or 1j
            coeff = mpmath.mpc(phase.real, phase.imag) * pf[mask] / dim
            for r, c in zip(*np.nonzero(string)):
                z = string[r, c]
                rho[r, c] += coeff * mpmath.mpc(z.real, z.imag)
        return rho


def _hermitian_sqrt_eigenvalues(a: mpmath.matrix):
    """Eigenvector matrix and square roots of the (floored) eigenvalues of
    the Hermitian part of ``a``."""
    values, vectors = mpmath.eighe((a + a.H) / 2)
    return vectors, [mpmath.sqrt(max(mpmath.re(w), 0)) for w in values]


def fidelity(m1, m2, dps: int = DIGITS) -> mpmath.mpf:
    """Uhlmann fidelity tr sqrt(sqrt(rho_1) rho_2 sqrt(rho_1)) of the two
    states, at ``dps`` digits."""
    with mpmath.workdps(dps):
        rho_1, rho_2 = wick_density(m1, dps), wick_density(m2, dps)
        vectors, roots = _hermitian_sqrt_eigenvalues(rho_1)
        root = vectors * mpmath.diag(roots) * vectors.H
        return sum(_hermitian_sqrt_eigenvalues(root * rho_2 * root)[1])


def bures_distance(m1, m2, dps: int = DIGITS) -> mpmath.mpf:
    """sqrt(2 (1 - F)) of the two states, at ``dps`` digits."""
    with mpmath.workdps(dps):
        return mpmath.sqrt(2 * max(1 - fidelity(m1, m2, dps), 0))
