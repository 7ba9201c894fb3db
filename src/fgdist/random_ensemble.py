"""Haar-random pure Gaussian states and their subsystem distance averages.

A pure Gaussian state on L sites is drawn by conjugating the reference
correlation matrix (the direct sum of L blocks [[0, -1], [1, 0]]) with a
Haar orthogonal matrix from the QR construction: factor a square matrix
of independent standard normals and absorb the signs of R's diagonal into
Q.  Subsystems are leading 2*ell blocks of the 2L x 2L matrix.  For
ell <= L/2 generic restrictions are fully mixed in every mode, so pair
distances ride the no-unit-modes branch of the fidelity dispatch; above L/2
a restriction of a pure state has 2 ell - L unit pairs, and its pairs take
the reduce branch (the pure branch at ell = L).

Sampling is reproducible: each state draws from its own stream spawned
from a single seed sequence, so state i never depends on how many states
come before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationMatrix

__all__ = [
    "RandomEnsembleSpec",
    "haar_orthogonal",
    "random_pure_gamma",
    "sample_ensemble",
]


@dataclass
class RandomEnsembleSpec:
    L: int
    count: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"need at least two states, got {self.count}")
        if self.L < 1:
            raise ValueError(f"need at least one site, got {self.L}")

    @property
    def pair_count(self) -> int:
        return self.count * (self.count - 1) // 2


def haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed real orthogonal n x n matrix."""
    gauss = rng.standard_normal((n, n))
    q, r = np.linalg.qr(gauss)
    # absorbing R's diagonal signs makes the factorization unique, hence Haar
    return q * np.sign(np.diag(r))


def random_pure_gamma(L: int, rng: np.random.Generator) -> CorrelationMatrix:
    """Random pure state on L sites: m = U J U^T, J the sum of [[0,-1],[1,0]].

    U J is a signed column permutation of U, columns (U_{2k+1}, -U_{2k}):
    every entry of the product U @ J is one term times +-1 plus zeros, so
    the permutation has its bits."""
    u = haar_orthogonal(2 * L, rng)
    uj = np.empty_like(u)
    uj[:, 0::2] = u[:, 1::2]
    uj[:, 1::2] = -u[:, 0::2]
    m = uj @ u.T
    return CorrelationMatrix((m - m.T) / 2.0, validate=False)


def sample_ensemble(spec: RandomEnsembleSpec) -> list:
    """One pure CorrelationMatrix per spawned stream of the spec's seed."""
    streams = np.random.SeedSequence(spec.seed).spawn(spec.count)
    return [random_pure_gamma(spec.L, np.random.default_rng(s)) for s in streams]
