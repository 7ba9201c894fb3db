"""Spin-basis cross-checks of the free-fermion solution.

Everything here compares the momentum-space construction against literal
2^L linear algebra: energies, charges, eigenvectors, and the reduced
correlation matrices the fast pipeline is built on.
"""

import numpy as np
import pytest

from fgdist.dense import partial_trace
from fgdist.ising import EigenstateLabel, enumerate_spectrum, eigenstate_correlation
from ising_dense import (
    bogoliubov_vacuum,
    charge_operator,
    eigenstate_vector,
    hamiltonian_residual,
    ising_hamiltonian,
    quasiparticle_operators,
    translation_phase,
)
from oracles import gamma_from_density


def test_hamiltonian_is_real_symmetric():
    ham = ising_hamiltonian(0.8, 5)
    assert np.abs(ham - ham.T).max() < 1e-14


def test_projected_quasiparticle_form_rebuilds_hamiltonian():
    for h in (0.5, 1.0, 2.0):
        for L in (4, 5):
            assert hamiltonian_residual(h, L) < 1e-10


def test_energy_multiset_matches_ed():
    for h in (0.5, 1.0, 2.0):
        for L in (4, 5, 6):
            table = enumerate_spectrum(h, L)
            want = np.linalg.eigvalsh(ising_hamiltonian(h, L))
            assert np.abs(np.sort(table.energy) - want).max() < 1e-10


def test_bogoliubov_vacuum_is_annihilated():
    for sector in ("NS", "R"):
        vac = bogoliubov_vacuum(1.5, 4, sector)
        for c in quasiparticle_operators(1.5, 4, sector):
            assert np.linalg.norm(c @ vac) < 1e-10


def test_eigenstate_vectors_are_eigenstates():
    rng = np.random.default_rng(6)
    h, L = 0.5, 6
    ham = ising_hamiltonian(h, L)
    table = enumerate_spectrum(h, L)
    for i in rng.integers(0, len(table), size=10):
        label = table.label(int(i))
        vec = eigenstate_vector(label)
        residual = np.linalg.norm(ham @ vec - label.energy * vec)
        assert residual < 1e-9, f"{label}: residual {residual:.2e}"


def test_translation_phase_matches_momentum():
    table = enumerate_spectrum(1.0, 6)
    rng = np.random.default_rng(7)
    for i in rng.integers(0, len(table), size=8):
        label = table.label(int(i))
        phi = translation_phase(eigenstate_vector(label), label.L)
        want = np.exp(-2j * np.pi * label.momentum / label.L)
        assert abs(np.exp(1j * phi) - want) < 1e-9


def test_translation_phase_rejects_superpositions():
    table = enumerate_spectrum(1.0, 4)
    # two states with different momentum
    vecs = []
    seen = set()
    for i in range(len(table)):
        k = int(table.momentum[i])
        if k not in seen:
            seen.add(k)
            vecs.append(eigenstate_vector(table.label(i)))
        if len(vecs) == 2:
            break
    mix = (vecs[0] + vecs[1]) / np.sqrt(2)
    with pytest.raises(ValueError):
        translation_phase(mix, 4)


def test_charges_commute_and_match_weights():
    h, L = 2.0, 5
    ham = ising_hamiltonian(h, L)
    table = enumerate_spectrum(h, L)
    rng = np.random.default_rng(8)
    rows = rng.integers(0, len(table), size=6)
    for m in range(3):
        q = charge_operator(h, L, m)
        assert np.abs(q @ ham - ham @ q).max() < 1e-10
        for i in rows:
            label = table.label(int(i))
            vec = eigenstate_vector(label)
            expect = np.vdot(vec, q @ vec).real
            assert abs(expect - label.charges(m + 1)[m]) < 1e-9


def test_charge_zero_is_the_hamiltonian():
    q0 = charge_operator(1.0, 4, 0)
    assert np.abs(q0 - ising_hamiltonian(1.0, 4)).max() < 1e-10


def test_subsystem_correlations_match_partial_trace():
    h, L, ell = 0.5, 6, 3
    table = enumerate_spectrum(h, L)
    rng = np.random.default_rng(9)
    for i in rng.integers(0, len(table), size=8):
        label = table.label(int(i))
        vec = eigenstate_vector(label)
        red = partial_trace(np.outer(vec, vec.conj()), L, ell)
        want = gamma_from_density(red)
        got = eigenstate_correlation(label, ell)
        assert np.abs(got.m - want.m).max() < 1e-10
