"""Dense cross-checks for the transverse-field Ising chain.

Builds the spin Hamiltonian, the Jordan-Wigner fermions, and the sector
Bogoliubov quasiparticles as explicit matrices, so the free-fermion
labeling can be verified operator by operator:

* ``hamiltonian_residual`` checks that the projected quasiparticle form
      P_+ sum_k eps_k (c^dag c - 1/2)|_NS P_+  +  P_- (...)|_R P_-
  reproduces the spin Hamiltonian.  Any sign or phase slip in the
  Jordan-Wigner string, the Fourier convention, or the Bogoliubov angle
  breaks this equality at O(1), so it is the convention gate.
* ``charge_operator`` builds the conserved charges the same way; they must
  commute with the Hamiltonian.
* ``eigenstate_vector`` constructs labeled eigenstates by applying
  quasiparticle creation operators to the numerically determined
  Bogoliubov vacuum of the sector, giving an independent dense state for
  every label without eigenvector-matching ambiguity in degenerate
  subspaces.

Everything here is exponential in L and guarded accordingly; it exists to
test the O(L) labeling, not to compete with it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from fgdist import ising
from fgdist.dense import _check_guard, majorana_operators
from fgdist.ising import EigenstateLabel, charge_weights, dispersion, sector_momenta
from oracles import parity_diagonal, site_operator, translation_operator

__all__ = [
    "ising_hamiltonian",
    "annihilation_operators",
    "quasiparticle_operators",
    "projected_mode_operator",
    "hamiltonian_residual",
    "charge_operator",
    "bogoliubov_vacuum",
    "eigenstate_vector",
    "translation_phase",
]


def ising_hamiltonian(h: float, L: int) -> np.ndarray:
    """Dense H = -(1/2) sum_j (X_j X_{j+1} + h Z_j), periodic."""
    _check_guard(L)
    x_ops = [site_operator("X", j, L) for j in range(1, L + 1)]
    z_ops = [site_operator("Z", j, L) for j in range(1, L + 1)]
    ham = sp.csr_matrix((2**L, 2**L), dtype=complex)
    for j in range(L):
        ham = ham - 0.5 * (x_ops[j] @ x_ops[(j + 1) % L])
        ham = ham - 0.5 * h * z_ops[j]
    dense = ham.toarray()
    assert np.abs(dense.imag).max() < 1e-14
    return dense.real


def annihilation_operators(L: int) -> list:
    """Sparse Jordan-Wigner a_j = (d_{2j-1} + i d_{2j}) / 2, j = 1..L."""
    d = majorana_operators(L)
    return [(d[2 * j] + 1j * d[2 * j + 1]) * 0.5 for j in range(L)]


@lru_cache(maxsize=16)
def quasiparticle_operators(h: float, L: int, sector: str) -> tuple:
    """Sparse Bogoliubov annihilators c_k aligned with sector_momenta(L, sector).

    Fourier modes a_k = L^{-1/2} sum_j e^{-i theta_k j} a_{j+1} (j = 0..L-1),
    then c_k = u_k a_k - i v_k a_{-k}^dag.  Unpaired momenta have v = 0.
    """
    a_site = annihilation_operators(L)
    ks2, theta, eps, u, v, minus = ising._mode_data(L, float(h), sector)
    a_mode = []
    for t in theta:
        op = sp.csr_matrix((2**L, 2**L), dtype=complex)
        for j in range(L):
            op = op + np.exp(-1j * t * j) * a_site[j]
        a_mode.append(op / np.sqrt(L))
    out = []
    for i in range(len(ks2)):
        out.append(u[i] * a_mode[i] - 1j * v[i] * a_mode[minus[i]].conj().T)
    return tuple(out)


def _parity_projector(L: int, sign: int) -> sp.spmatrix:
    diag = parity_diagonal(L)
    return sp.diags((1.0 + sign * diag) / 2.0).tocsr()


def projected_mode_operator(h: float, L: int, weights_ns: np.ndarray, weights_r: np.ndarray) -> np.ndarray:
    """Dense P_+ sum_k w_k (n_k - 1/2)|_NS P_+ + P_- (...)|_R P_-."""
    total = sp.csr_matrix((2**L, 2**L), dtype=complex)
    for sector, weights, sign in (("NS", weights_ns, 1), ("R", weights_r, -1)):
        ops = quasiparticle_operators(float(h), L, sector)
        form = sp.csr_matrix((2**L, 2**L), dtype=complex)
        for w, c in zip(weights, ops):
            form = form + w * (c.conj().T @ c)
        form = form - 0.5 * float(np.sum(weights)) * sp.identity(2**L, format="csr")
        proj = _parity_projector(L, sign)
        total = total + proj @ form @ proj
    return total.toarray()


def hamiltonian_residual(h: float, L: int) -> float:
    """Max-entry gap between the projected quasiparticle form and the spin H."""
    built = projected_mode_operator(h, L, dispersion(h, L, "NS"), dispersion(h, L, "R"))
    return float(np.abs(built - ising_hamiltonian(h, L)).max())


def charge_operator(h: float, L: int, m: int) -> np.ndarray:
    """Dense conserved charge Q_m assembled from both sectors."""
    w_ns = charge_weights(h, L, "NS", m + 1)[m]
    w_r = charge_weights(h, L, "R", m + 1)[m]
    return projected_mode_operator(h, L, w_ns, w_r)


@lru_cache(maxsize=16)
def bogoliubov_vacuum(h: float, L: int, sector: str) -> np.ndarray:
    """State annihilated by every c_k of the sector, phase-fixed."""
    ops = quasiparticle_operators(float(h), L, sector)
    number = sp.csr_matrix((2**L, 2**L), dtype=complex)
    for c in ops:
        number = number + c.conj().T @ c
    vals, vecs = np.linalg.eigh(number.toarray())
    if vals[0] > 1e-9 or vals[1] < 0.5:
        raise RuntimeError(f"Bogoliubov vacuum of {sector} not isolated: {vals[:3]}")
    vac = vecs[:, 0]
    lead = np.argmax(np.abs(vac))
    vac = vac * (np.abs(vac[lead]) / vac[lead])
    return vac


def eigenstate_vector(label: EigenstateLabel) -> np.ndarray:
    """Dense eigenstate Prod_{k in occ} c_k^dag |vacuum>, normalized."""
    ops = quasiparticle_operators(float(label.h), label.L, label.sector)
    ks2 = sector_momenta(label.L, label.sector)
    vec = bogoliubov_vacuum(float(label.h), label.L, label.sector)
    for q in sorted(label.occupied, reverse=True):
        idx = int(np.searchsorted(ks2, q))
        vec = ops[idx].conj().T @ vec
    norm = np.linalg.norm(vec)
    if norm < 1e-8:
        raise RuntimeError(f"creation sequence annihilated the state for {label}")
    return vec / norm


def translation_phase(vec: np.ndarray, L: int) -> float:
    """Phase angle of the one-site translation eigenvalue of vec."""
    shifted = translation_operator(L) @ vec
    phase = np.vdot(vec, shifted)
    if abs(abs(phase) - 1.0) > 1e-8 or np.linalg.norm(shifted - phase * vec) > 1e-8:
        raise ValueError("state is not a translation eigenvector")
    return float(np.angle(phase))
