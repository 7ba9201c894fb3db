"""Shared builders for randomized Gaussian-state tests."""

import os
from pathlib import Path

import numpy as np

import fgdist
from fgdist.correlation import CorrelationMatrix


def package_env() -> dict:
    """Environment for a ``python -m fgdist`` subprocess that imports the
    same fgdist as the tests, whether it is installed or only on pytest's
    ``pythonpath``."""
    env = dict(os.environ)
    root = str(Path(fgdist.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def rand_rotation(n: int, rng) -> np.ndarray:
    """Haar orthogonal matrix (QR with the sign fix), det = +-1."""
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def rand_special_rotation(n: int, rng) -> np.ndarray:
    """Haar rotation restricted to det +1 (fermion parity even)."""
    q = rand_rotation(n, rng)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def planted_state(gammas, rotation=None, rng=None) -> CorrelationMatrix:
    """State with prescribed pair values, optionally in a rotated basis."""
    g = np.asarray(gammas, dtype=float)
    n = len(g)
    m = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    m[2 * idx, 2 * idx + 1] = g
    m[2 * idx + 1, 2 * idx] = -g
    if rotation is None and rng is not None:
        rotation = rand_rotation(2 * n, rng)
    if rotation is not None:
        m = rotation @ m @ rotation.T
        m = (m - m.T) / 2.0
    return CorrelationMatrix(m, validate=False)


def random_mixed_state(ell: int, rng, gmax: float = 0.95) -> CorrelationMatrix:
    return planted_state(rng.uniform(0.0, gmax, size=ell), rng=rng)


def commuting_pair(gammas_1, gammas_2, rng):
    """Two states sharing one canonical basis; their fidelity factorizes."""
    rot = rand_rotation(2 * len(gammas_1), rng)
    return planted_state(gammas_1, rotation=rot), planted_state(gammas_2, rotation=rot)


def factorized_fidelity(gammas_1, gammas_2) -> float:
    """Per-mode closed form for commuting states, exact in every regime."""
    g1 = np.asarray(gammas_1, dtype=float)
    g2 = np.asarray(gammas_2, dtype=float)
    per_mode = 0.5 * (np.sqrt((1 + g1) * (1 + g2)) + np.sqrt((1 - g1) * (1 - g2)))
    return float(np.prod(per_mode))
