"""Interacting chain: momentum-sector blocks against full diagonalization."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import comb

from fgdist import experiments, xxz
from fgdist.xxz import (
    XXZSector,
    translate_bits,
    xxz_block_hamiltonian,
    xxz_dense_hamiltonian,
    xxz_eigen_rdm,
    xxz_eigenstates,
    xxz_pairwise_average,
    xxz_sector_basis,
)
from oracles import site_operator


def test_translate_bits_cycles():
    L = 6
    rng = np.random.default_rng(1)
    for config in rng.integers(0, 2**L, size=10):
        c = int(config)
        t = c
        for _ in range(L):
            t = translate_bits(t, L)
        assert t == c
    assert translate_bits(0b000001, 3) is not None
    assert translate_bits(1, 3) == 0b100  # site 1 content moves to site 2


def test_sector_dimensions_partition_magnetization_space():
    L = 8
    for n_down in range(L + 1):
        total = sum(xxz_sector_basis(L, K, n_down).dim for K in range(L))
        assert total == comb(L, n_down, exact=True)


def test_sector_basis_validation():
    with pytest.raises(ValueError):
        xxz_sector_basis(6, 6, 2)
    with pytest.raises(ValueError):
        xxz_sector_basis(6, 0, 7)


def test_two_site_singlet_sector_energy():
    # symmetric two-site state: E = -1 + delta/2 by hand
    sector = xxz_sector_basis(2, 0, 1)
    assert sector.dim == 1
    energies, _ = xxz_eigenstates(sector, np.sqrt(2.0))
    assert abs(energies[0] - (-1.0 + np.sqrt(2.0) / 2.0)) < 1e-12


def test_block_union_matches_dense_ed():
    for L, delta in ((6, 0.5), (8, np.sqrt(2.0))):
        collected = []
        for n_down in range(L + 1):
            for K in range(L):
                sector = xxz_sector_basis(L, K, n_down)
                if sector.dim == 0:
                    continue
                energies, _ = xxz_eigenstates(sector, delta)
                collected.append(energies)
        union = np.sort(np.concatenate(collected))
        dense = np.linalg.eigvalsh(xxz_dense_hamiltonian(L, float(delta)).toarray())
        assert len(union) == 2**L
        assert np.abs(union - dense).max() < 1e-10


def test_block_is_hermitian_and_real_spectrum():
    sector = xxz_sector_basis(8, 3, 3)
    block = xxz_block_hamiltonian(sector, 0.7)
    assert block.shape == (sector.dim, sector.dim)
    assert np.abs(block - block.conj().T).max() < 1e-12


def test_field_shifts_energies_but_not_states():
    # fixed magnetization: the field term is a constant, states cannot move
    sector = xxz_sector_basis(8, 2, 3)
    delta, h_z = 1.3, 0.7
    e0, full0 = xxz_eigenstates(sector, delta, 0.0)
    e1, full1 = xxz_eigenstates(sector, delta, h_z)
    shift = -0.5 * h_z * (sector.L - 2 * sector.n_down)
    assert np.abs(e1 - e0 - shift).max() < 1e-10
    assert np.abs(np.abs(full1) - np.abs(full0)).max() < 1e-10
    a0 = xxz_pairwise_average(sector, delta, 2, "bures", 0.0)[0]
    a1 = xxz_pairwise_average(sector, delta, 2, "bures", h_z)[0]
    assert abs(a0 - a1) < 1e-10


def test_eigen_rdm_is_a_state():
    sector = xxz_sector_basis(8, 1, 3)
    rdm = xxz_eigen_rdm(sector, 0.9, 0, 3)
    assert rdm.shape == (8, 8)
    assert abs(np.trace(rdm).real - 1.0) < 1e-12
    w = np.linalg.eigvalsh(rdm)
    assert w.min() > -1e-12 and w.max() <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        xxz_eigen_rdm(sector, 0.9, sector.dim, 3)


def test_eigensystem_deterministic_across_cache_resets():
    sector = xxz_sector_basis(8, 1, 2)
    e0, f0 = xxz_eigenstates(sector, 0.4)
    xxz_eigenstates.cache_clear()
    e1, f1 = xxz_eigenstates(sector, 0.4)
    assert np.array_equal(e0, e1)
    assert np.array_equal(f0, f1)


def test_eigenstates_diagonalize_the_sector_they_are_given():
    # the L = 8, K = 1, n_down = 2 sector with its last orbit dropped: two
    # columns, so two eigenstates of its own 2 x 2 block
    sector = xxz_sector_basis(8, 1, 2)
    keep = sector.orbit < sector.dim - 1
    sub = XXZSector(8, 1, 2, sector.configs[keep], sector.orbit[keep], sector.amplitudes[keep])
    assert (sector.dim, sub.dim) == (3, 2)
    delta = float(np.sqrt(2.0))
    want_energies, want_modes = np.linalg.eigh(xxz_block_hamiltonian(sub, delta))
    energies, vectors = xxz_eigenstates(sub, delta)
    assert vectors.shape == (2**8, 2)
    _assert_bits_equal(energies, want_energies)
    # each column is B @ modes
    bloch = np.zeros((2**8, sub.dim), dtype=complex)
    bloch[sub.configs, sub.orbit] = sub.amplitudes
    assert np.abs(vectors - bloch @ want_modes).max() < 1e-15
    assert len(xxz_eigenstates(sector, delta)[0]) == 3
    assert not energies.flags.writeable and not vectors.flags.writeable


def test_sweep_builds_and_diagonalizes_its_sector_once(monkeypatch):
    calls = {"basis": 0, "block": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    basis = counted("basis", xxz.xxz_sector_basis)
    monkeypatch.setattr(experiments, "xxz_sector_basis", basis)
    monkeypatch.setattr(xxz, "xxz_sector_basis", basis)
    monkeypatch.setattr(xxz, "xxz_block_hamiltonian", counted("block", xxz.xxz_block_hamiltonian))
    # a (delta, h_z) no other test uses, so no earlier call has filled a cache
    result = experiments.xxz_sweep(8, 1, 3, 0.8125, "bures", [1, 2, 3, 4], h_z=0.0625)
    assert len(result.rows) == 4
    assert calls == {"basis": 1, "block": 1}


def test_pairwise_average_frozen_small_case():
    sector = xxz_sector_basis(8, 1, 2)
    assert sector.dim == 3
    avg_b, pairs = xxz_pairwise_average(sector, np.sqrt(2.0), 2, "bures")
    assert pairs == 3
    assert abs(avg_b - 0.39394404043551495) < 1e-10
    avg_t, _ = xxz_pairwise_average(sector, np.sqrt(2.0), 2, "trace")
    assert abs(avg_t - 0.2502035696408853) < 1e-10


def test_pairwise_average_guards():
    tiny = xxz_sector_basis(2, 0, 1)
    with pytest.raises(ValueError):
        xxz_pairwise_average(tiny, 1.0, 1, "bures")
    sector = xxz_sector_basis(8, 1, 2)
    with pytest.raises(ValueError):
        xxz_pairwise_average(sector, 1.0, 2, "fidelity")


def _pauli_sum(L, delta, h_z):
    """The Hamiltonian of the module docstring summed term by term from sparse
    single-site Paulis: the oracle the bit-built matrix is held to."""
    ops = {label: [site_operator(label, j, L) for j in range(1, L + 1)] for label in "XYZ"}
    ham = sp.csr_matrix((2**L, 2**L), dtype=complex)
    for j in range(L):
        nxt = (j + 1) % L
        for label, weight in (("X", 0.25), ("Y", 0.25), ("Z", 0.25 * delta)):
            ham = ham - weight * (ops[label][j] @ ops[label][nxt])
        ham = ham - 0.5 * h_z * ops["Z"][j]
    return ham


@pytest.mark.parametrize("L", range(2, 10))
def test_dense_hamiltonian_matches_pauli_sum(L):
    for delta in (0.0, 0.5, 1.0, float(np.sqrt(2.0)), -0.7):
        for h_z in (0.0, 0.37, -0.2):
            built = xxz_dense_hamiltonian(L, delta, h_z)
            oracle = _pauli_sum(L, delta, h_z)
            assert (built != oracle).nnz == 0
            # same stored entries in the same order, so sparse products that
            # use the matrix sum their terms in the same order
            assert np.array_equal(built.indptr, oracle.indptr)
            assert np.array_equal(built.indices, oracle.indices)


def _sparse_eigensystem(sector, ham):
    """Block and energies the way the sparse Bloch matrix gives them:
    B^dag H B as a scipy.sparse product, with B built column by column from
    the orbits."""
    L, K = sector.L, sector.K
    rows, cols, vals = [], [], []
    omega = np.exp(2j * np.pi * K / L)
    # configurations ascend, so each orbit first appears at its smallest one
    representatives = sector.configs[np.unique(sector.orbit, return_index=True)[1]]
    for col, (rep, period) in enumerate(zip(representatives, np.bincount(sector.orbit))):
        t = int(rep)
        for step in range(int(period)):
            rows.append(t)
            cols.append(col)
            vals.append(omega**step / np.sqrt(period))
            t = translate_bits(t, L)
    bloch = sp.csr_matrix((vals, (rows, cols)), shape=(2**L, sector.dim))
    block = (bloch.conj().T @ ham @ bloch).toarray()
    block = (block + block.conj().T) / 2.0
    return block, np.linalg.eigvalsh(block)


def _assert_bits_equal(got, want):
    # int64 views: a sign of zero or a last-bit difference shows
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _sectors(L):
    return [sector for n_down in range(L + 1) for K in range(L)
            if (sector := xxz_sector_basis(L, K, n_down)).dim > 0]


def _assert_matches_oracle(sector, ham, delta, h_z):
    # basis-independent: the block entries, the energies, and full-space
    # vectors that are orthonormal eigenvectors of the full-space H, whatever
    # their phases and their basis inside a degenerate cluster
    block, energies = _sparse_eigensystem(sector, ham)
    assert np.abs(xxz_block_hamiltonian(sector, delta, h_z) - block).max() <= 1e-14
    got_energies, vectors = xxz_eigenstates(sector, delta, h_z)
    assert np.abs(got_energies - energies).max() <= 1e-12
    residual = ham @ vectors - vectors * got_energies
    assert np.linalg.norm(residual, axis=0).max() <= 1e-12
    assert np.abs(vectors.conj().T @ vectors - np.eye(sector.dim)).max() <= 1e-12


@pytest.mark.parametrize("L", range(2, 11))
def test_block_and_eigensystem_match_sparse_product(L):
    for delta, h_z in ((float(np.sqrt(2.0)), 0.0), (1.205, 0.3), (-0.7, 0.0), (1.0, 0.0)):
        ham = xxz_dense_hamiltonian(L, delta, h_z)
        for sector in _sectors(L):
            _assert_matches_oracle(sector, ham, delta, h_z)
        xxz_eigenstates.cache_clear()


def test_benchmark_sector_matches_sparse_product():
    _assert_matches_oracle(xxz_sector_basis(12, 1, 4), xxz_dense_hamiltonian(12, 1.205), 1.205, 0.0)


def test_eigenstates_match_pauli_sum_hamiltonian():
    sector = xxz_sector_basis(9, 2, 4)
    delta, h_z = float(np.sqrt(2.0)), 0.37
    assert sector.dim > 10
    _assert_matches_oracle(sector, _pauli_sum(9, delta, h_z), delta, h_z)


def test_eigenstates_hold_little_beyond_their_vectors():
    # the lift writes each sector row once into the zeroed 2^L x dim array;
    # the block, its eigenvectors and one lifted copy of the sector rows are
    # small beside it
    sector = xxz_sector_basis(12, 1, 4)
    xxz_eigenstates.cache_clear()
    tracemalloc.start()
    try:
        _, vectors = xxz_eigenstates(sector, 1.205)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * vectors.nbytes


def test_bures_average_holds_factors_not_reduced_states():
    # each reduced state is factored as soon as it is built: at ell = 8 of
    # L = 10 a state is 256 x 256 (1 MiB) but of rank at most 4, so the call
    # holds one state at a time and 20 narrow factors, not all 20 states
    # (peak 21.7 MiB when every state was held, 2.7 MiB with factors only)
    sector = xxz_sector_basis(10, 1, 4)
    assert sector.dim == 20
    xxz_eigenstates(sector, 0.875)  # the cached eigenvectors are not the call's own
    tracemalloc.start()
    try:
        xxz_pairwise_average(sector, 0.875, 8, "bures")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sector_is_shared_and_read_only():
    sector = xxz_sector_basis(8, 1, 2)
    assert xxz_sector_basis(8, 1, 2) is sector
    assert not any(array.flags.writeable for array in (sector.configs, sector.orbit, sector.amplitudes))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sector.K = 2


@pytest.mark.parametrize("L", range(2, 11))
def test_sector_arrays_are_orthonormal_bloch_columns(L):
    for n_down in range(L + 1):
        for K in range(L):
            sector = xxz_sector_basis(L, K, n_down)
            assert np.all(np.diff(sector.configs) > 0)
            periods = np.bincount(sector.orbit)
            assert len(periods) == sector.dim
            assert np.all(L % periods == 0) and np.all(K * periods % L == 0)
            bloch = np.zeros((2**L, sector.dim), dtype=complex)
            bloch[sector.configs, sector.orbit] = sector.amplitudes
            assert np.abs(bloch.conj().T @ bloch - np.eye(sector.dim)).max(initial=0.0) <= 1e-14


def test_dense_hamiltonian_needs_two_sites():
    with pytest.raises(ValueError, match="at least two sites"):
        xxz_dense_hamiltonian(1, 1.0)
    one_site = XXZSector(1, 0, 0, np.array([0]), np.array([0]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError, match="at least two sites"):
        xxz_block_hamiltonian(one_site, 1.0)
