"""Walk through the fidelity algorithm branch by branch.

Builds Gaussian states with known canonical structure, shows which route
the dispatcher takes for each pairing, checks every answer against the
dense oracle while that is affordable, and ends at a chain size where
only the correlation-matrix path survives.
"""

import time

import numpy as np

from fgdist.correlation import (
    CorrelationMatrix,
    bures_distance,
    canonical_form,
    fidelity,
    fidelity_single_mode,
)
from fgdist.dense import density_from_gamma, fidelity_dense
from fgdist.ising import EigenstateLabel, eigenstate_correlation, sector_momenta

rng = np.random.default_rng(7)


def rotation(n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def special_rotation(n):
    # det +1 keeps planted pure states in the even-parity sector
    q = rotation(n)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def planted(gammas, rot=None):
    g = np.asarray(gammas, dtype=float)
    m = np.zeros((2 * len(g), 2 * len(g)))
    for j, val in enumerate(g):
        m[2 * j, 2 * j + 1] = val
        m[2 * j + 1, 2 * j] = -val
    if rot is not None:
        m = rot @ m @ rot.T
        m = (m - m.T) / 2.0
    return CorrelationMatrix(m, validate=False)


def against_oracle(tag, a, b):
    got = fidelity(a, b)
    want = fidelity_dense(density_from_gamma(a), density_from_gamma(b))
    print(f"  {tag}: F = {got:.12f}   dense oracle gap = {abs(got - want):.2e}")


print("single mode: the 2x2 closed form, no matrix algebra at all")
a, b = planted([0.3]), planted([0.7])
print(f"  F(0.3, 0.7) = {fidelity(a, b):.12f}")
print(f"  closed form  = {fidelity_single_mode(0.3, 0.7):.12f}")

print("\nmixed states without unit pairs: the composition route")
a = planted(rng.uniform(0.0, 0.9, size=4), rotation(8))
b = planted(rng.uniform(0.0, 0.9, size=4), rotation(8))
o = canonical_form(a)
print(f"  pair values of the first state: {np.round(a.pair_values, 4)}")
residue = np.abs(o @ a.m @ o.T - planted(a.pair_values).m).max()
print(f"  its canonical rotation O leaves O m O^T off the block form by {residue:.1e}")
against_oracle("generic 4-mode pair", a, b)

print("\npure states: fidelity collapses to the square root of a product trace")
p1 = planted(np.ones(4), special_rotation(8))
p2 = planted(np.ones(4), special_rotation(8))
against_oracle("pure vs pure (same parity)", p1, p2)
against_oracle("pure vs mixed", p1, a)

print("\npartial unit pairs: split off the deterministic modes, then recurse")
part = planted([1.0, 1.0, 0.6, 0.2], rotation(8))
print(f"  unit pairs detected: {part.unit_pair_count()} of {4}")
against_oracle("two unit + two bulk", part, b)

print("\nBures distance comes straight from the fidelity")
print(f"  B(generic pair) = {bures_distance(a, b):.12f}")

print("\nheadline scale: a 29-site chain, 28-site blocks, Gaussian path only")
ks = sector_momenta(29, "NS")
t0 = time.perf_counter()
vac = EigenstateLabel(L=29, h=1.0, sector="NS", occupied=())
exc = EigenstateLabel(L=29, h=1.0, sector="NS", occupied=(int(ks[0]), int(ks[1])))
value = bures_distance(eigenstate_correlation(vac, 28), eigenstate_correlation(exc, 28))
dt = time.perf_counter() - t0
print(f"  B = {value:.6f} in {dt * 1000:.1f} ms (the dense matrix would be 2^28 x 2^28)")
