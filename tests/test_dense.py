"""Dense 2^ell oracles: Majorana algebra, state construction, metrics."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planted_state, rand_rotation, random_mixed_state
from fgdist.correlation import CorrelationMatrix, canonical_form, fidelity_single_mode
from fgdist.dense import (
    DENSE_GUARD,
    _wick_plan,
    density_from_gamma,
    density_stack,
    fidelity_dense,
    majorana_operators,
    partial_trace,
    root_factor,
    trace_distance,
)
from fgdist.errors import GuardExceeded
from fgdist.experiments import apply_ordering
from fgdist.ising import enumerate_spectrum, subsystem_correlations
from fgdist.xxz import XXZSector, xxz_block_hamiltonian, xxz_dense_hamiltonian, xxz_eigen_rdm, xxz_sector_basis
from ising_dense import annihilation_operators, ising_hamiltonian
from oracles import (
    PAULI,
    density_from_gamma_exponential,
    embed_parity_blocks,
    fidelity_dense_product,
    gamma_from_density,
    parity_diagonal,
    site_operator,
    translation_operator,
)


def random_density(dim: int, rng, rank: int | None = None) -> np.ndarray:
    """Generic (non-Gaussian) density matrix from a random Wishart factor."""
    rank = rank or dim
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ------------------------------------------------------------ operator algebra


def test_majorana_anticommutation():
    for ell in (1, 2, 3):
        ops = [op.toarray() for op in majorana_operators(ell)]
        dim = 2**ell
        for a in range(2 * ell):
            assert np.abs(ops[a] - ops[a].conj().T).max() < 1e-14  # Hermitian
            for b in range(a, 2 * ell):
                anti = ops[a] @ ops[b] + ops[b] @ ops[a]
                want = 2.0 * np.eye(dim) if a == b else np.zeros((dim, dim))
                assert np.abs(anti - want).max() < 1e-14


def test_site_operator_locality():
    # sites are 1-based; distinct sites commute, same site anticommutes
    x1 = site_operator("X", 1, 3).toarray()
    z3 = site_operator("Z", 3, 3).toarray()
    z1 = site_operator("Z", 1, 3).toarray()
    assert np.abs(x1 @ z3 - z3 @ x1).max() < 1e-15
    assert np.abs(x1 @ z1 + z1 @ x1).max() < 1e-15
    with pytest.raises(ValueError):
        site_operator("X", 0, 3)


def test_site_operator_matches_chained_kron_bytes():
    # reference: the L-fold product 1 x .. x P x .. x 1, one factor per site
    for length in range(1, 9):
        for label, pauli in PAULI.items():
            for site in range(1, length + 1):
                want = scipy.sparse.identity(1, dtype=complex, format="csr")
                for j in range(1, length + 1):
                    factor = pauli if j == site else PAULI["I"]
                    want = scipy.sparse.kron(want, scipy.sparse.csr_matrix(factor), format="csr")
                got = site_operator(label, site, length)
                assert got.shape == want.shape
                for field in ("data", "indices", "indptr"):
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (label, site, length, field)


def _chained_kron_majoranas(ell):
    """d_{2j-1} = Z..Z X 1..1 and d_{2j} = Z..Z Y 1..1 as chained Kronecker
    products of the Pauli matrices."""
    ops = []
    string = scipy.sparse.identity(1, dtype=complex, format="csr")
    for j in range(ell):
        tail = scipy.sparse.identity(2 ** (ell - j - 1), dtype=complex, format="csr")
        for label in ("X", "Y"):
            op = scipy.sparse.kron(string, scipy.sparse.csr_matrix(PAULI[label]), format="csr")
            ops.append(scipy.sparse.kron(op, tail, format="csr"))
        string = scipy.sparse.kron(string, scipy.sparse.csr_matrix(PAULI["Z"]), format="csr")
    return ops


def test_majorana_operators_match_chained_kron_bytes():
    for ell in range(1, 9):
        got, want = majorana_operators(ell), _chained_kron_majoranas(ell)
        assert len(got) == len(want) == 2 * ell
        for a, (g, w) in enumerate(zip(got, want)):
            assert type(g) is type(w) and g.shape == w.shape
            for field in ("data", "indices", "indptr"):
                x, y = getattr(g, field), getattr(w, field)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (ell, a, field)
    with pytest.raises(ValueError, match="at least one mode"):
        majorana_operators(0)


def test_translation_operator_order():
    L = 4
    t = translation_operator(L).toarray()
    assert np.abs(np.linalg.matrix_power(t, L) - np.eye(2**L)).max() < 1e-12
    # T sigma_i T^dag = sigma_{i+1}
    for i in range(1, L):
        lhs = t @ site_operator("Z", i, L).toarray() @ t.conj().T
        assert np.abs(lhs - site_operator("Z", i + 1, L).toarray()).max() < 1e-12


def test_parity_diagonal_matches_z_product():
    L = 3
    prod = np.eye(2**L)
    for i in range(1, L + 1):
        prod = prod @ site_operator("Z", i, L).toarray()
    assert np.abs(np.diag(prod) - parity_diagonal(L)).max() < 1e-15


# ---------------------------------------------------------- state construction


def test_density_from_gamma_is_a_state():
    rng = np.random.default_rng(7)
    for _ in range(10):
        ell = int(rng.integers(1, 5))
        state = random_mixed_state(ell, rng, gmax=1.0)
        rho = density_from_gamma(state)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_gamma_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ell = int(rng.integers(1, 5))
        state = random_mixed_state(ell, rng, gmax=1.0)
        back = gamma_from_density(density_from_gamma(state))
        assert np.abs(back.m - state.m).max() < 1e-11


def test_exponential_form_agrees_on_mixed_states():
    # exp(-W/4)/Z path diverges at unit pairs, so stay strictly mixed
    rng = np.random.default_rng(9)
    for _ in range(5):
        state = random_mixed_state(3, rng, gmax=0.9)
        a = density_from_gamma(state)
        b = density_from_gamma_exponential(state)
        assert np.abs(a - b).max() < 1e-10


def test_pure_state_density_is_projector():
    rng = np.random.default_rng(10)
    state = planted_state(np.ones(3), rotation=rand_rotation(6, rng))
    rho = density_from_gamma(state)
    assert np.abs(rho @ rho - rho).max() < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12


def _density_by_operator_sums(state):
    """The rotated Majoranas summed from dense copies of the 2 ell operators."""
    values, rotation = state.pair_values, canonical_form(state)
    ops = majorana_operators(state.ell)
    dim = 2**state.ell
    rho = np.eye(dim, dtype=complex) * 2.0**-state.ell
    for j, g in enumerate(values):
        rotated = []
        for coeffs in rotation[2 * j : 2 * j + 2]:
            out = np.zeros((dim, dim), dtype=complex)
            for c, op in zip(coeffs, ops):
                if c != 0.0:
                    out += c * op.toarray()
            rotated.append(out)
        rho = rho @ (np.eye(dim) - g * 1j * (rotated[0] @ rotated[1]))
    return rho


@pytest.mark.parametrize("ell", range(1, 7))
def test_density_from_gamma_bitwise_matches_operator_sums(ell):
    rng = np.random.default_rng(100 + ell)
    gammas = rng.uniform(0.1, 0.9, size=ell)
    gammas[::2] = 0.0
    states = [
        random_mixed_state(ell, rng),
        planted_state(np.ones(ell), rng=rng),
        planted_state(gammas),  # canonical already: exact zero coefficients
        planted_state(gammas, rng=rng),  # zero pair values: a degenerate eigenspace
    ]
    for state in states:
        assert np.array_equal(density_from_gamma(state), _density_by_operator_sums(state))


# pair values of one state: exact 1 (pure modes) and 0 (maximally mixed
# modes) as often as generic values, so pure and partly pure states come up
_PAIR_VALUES = st.lists(st.one_of(st.just(1.0), st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(gammas=_PAIR_VALUES, seed=st.integers(0, 2**32 - 1))
def test_density_stack_matches_the_product_form(gammas, seed):
    # the product form fills no entry between the parity blocks, so the
    # blocks leave out nothing of rho
    state = planted_state(gammas, rng=np.random.default_rng(seed))
    blocks = density_stack(state.m[None])
    half = 2 ** (state.ell - 1)
    assert blocks.shape == (1, 2, half, half)
    want = density_from_gamma(state)
    parity = parity_diagonal(state.ell)
    assert (want[parity[:, None] != parity] == 0).all()
    assert np.abs(embed_parity_blocks(blocks[0]) - want).max() <= 1e-14


@pytest.mark.parametrize("ell", range(1, 9))
def test_wick_plan_reads_every_transform_entry_once(ell):
    sources = _wick_plan(ell)[3]
    assert np.array_equal(np.sort(sources), np.arange(2 ** (2 * ell - 1)))


def test_block_trace_distances_match_the_full_matrices():
    # a block-diagonal operator's trace norm is the sum of its blocks'
    rng = np.random.default_rng(14)
    for ell in range(1, 8):
        states = [random_mixed_state(ell, rng) for _ in range(3)]
        states += [planted_state(np.ones(ell), rng=rng), planted_state([1.0] + [0.4] * (ell - 1), rng=rng)]
        blocks = density_stack(np.stack([s.m for s in states]))
        full = embed_parity_blocks(blocks)
        i, j = np.triu_indices(len(states), 1)
        got = trace_distance(blocks[i], blocks[j]).sum(axis=-1)
        assert np.abs(got - trace_distance(full[i], full[j])).max() <= 1e-14
        assert (trace_distance(blocks, blocks).sum(axis=-1) == 0.0).all()


def test_density_stack_is_the_same_in_any_stack():
    rng = np.random.default_rng(12)
    for ell in (1, 3, 5):
        states = [random_mixed_state(ell, rng) for _ in range(4)]
        states += [planted_state(np.ones(ell), rng=rng), planted_state([1.0] + [0.3] * (ell - 1), rng=rng)]
        m = np.stack([s.m for s in states])
        whole = density_stack(m)
        for k in range(len(m)):
            assert np.array_equal(density_stack(m[k : k + 1])[0], whole[k])
        assert np.array_equal(density_stack(m[2:5]), whole[2:5])


def test_density_from_gamma_on_a_fourfold_pair_value():
    # state 2078 of this table has the fourfold pair value 0.5577 at ell = 2,
    # where a real Schur form of m is not found; canonical_form rotates
    # through eigh instead
    m = subsystem_correlations(apply_ordering(enumerate_spectrum(0.95, 12), "charges:default"), 2)[2078]
    got = density_from_gamma(CorrelationMatrix(m, validate=False))
    assert np.abs(got - embed_parity_blocks(density_stack(m[None])[0])).max() < 1e-12


def test_density_stack_rejects_other_shapes():
    for shape in [(4, 4), (1, 3, 3), (1, 4, 6), (1, 0, 0)]:
        with pytest.raises(ValueError):
            density_stack(np.zeros(shape))


def test_guard_rejects_large_systems():
    big = planted_state(np.zeros(DENSE_GUARD + 1))
    with pytest.raises(GuardExceeded):
        density_from_gamma(big)
    with pytest.raises(GuardExceeded):
        density_from_gamma(planted_state(np.zeros(13)))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda state: majorana_operators(13), id="majorana_operators"),
        pytest.param(density_from_gamma, id="density_from_gamma"),
        pytest.param(density_from_gamma_exponential, id="density_from_gamma_exponential"),
        pytest.param(lambda state: density_stack(state.m[None]), id="density_stack"),
        pytest.param(lambda state: ising_hamiltonian(1.0, 13), id="ising_hamiltonian"),
        pytest.param(lambda state: annihilation_operators(13), id="annihilation_operators"),
        pytest.param(lambda state: xxz_dense_hamiltonian(13, 1.0), id="xxz_dense_hamiltonian"),
        # a hand-built one-orbit sector: the basis walk would stop first
        pytest.param(lambda state: xxz_block_hamiltonian(
                         XXZSector(13, 0, 1, 1 << np.arange(13), np.zeros(13, dtype=np.int64), np.full(13, 13**-0.5 + 0j)), 1.0),
                     id="xxz_block_hamiltonian"),
        pytest.param(lambda state: xxz_sector_basis(13, 0, 6), id="xxz_sector_basis"),
    ],
)
def test_every_dense_entry_point_stops_at_the_guard(build):
    """13 sites raise before anything with 2^13 entries is allocated."""
    state = planted_state(np.full(13, 0.5))
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match="guard of 12"):
            build(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**13


def test_gamma_from_density_rejects_bad_dimension():
    with pytest.raises(ValueError):
        gamma_from_density(np.eye(3) / 3.0)


# -------------------------------------------------------------------- fidelity


def test_fidelity_dense_basics():
    rng = np.random.default_rng(20)
    rho = random_density(8, rng)
    sigma = random_density(8, rng)
    assert abs(fidelity_dense(rho, rho) - 1.0) < 1e-12
    f = fidelity_dense(rho, sigma)
    assert 0.0 < f < 1.0
    assert abs(f - fidelity_dense(sigma, rho)) < 1e-12


def test_fidelity_dense_orthogonal_pure():
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex)
    assert fidelity_dense(rho, sigma) < 1e-14


def test_fidelity_dense_single_mode_closed_form():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g1, g2 = rng.uniform(-1.0, 1.0, size=2)
        rho = density_from_gamma(planted_state([g1]))
        sigma = density_from_gamma(planted_state([g2]))
        assert abs(fidelity_dense(rho, sigma) - fidelity_single_mode(g1, g2)) < 1e-13


def test_fidelity_dense_classical_case():
    # commuting diagonal states: F = sum sqrt(p_i q_i)
    rng = np.random.default_rng(22)
    p = rng.dirichlet(np.ones(8))
    q = rng.dirichlet(np.ones(8))
    f = fidelity_dense(np.diag(p).astype(complex), np.diag(q).astype(complex))
    assert abs(f - np.sum(np.sqrt(p * q))) < 1e-12


def test_fidelity_product_form_agrees_when_well_conditioned():
    rng = np.random.default_rng(23)
    for _ in range(10):
        state_1 = random_mixed_state(3, rng, gmax=0.9)
        state_2 = random_mixed_state(3, rng, gmax=0.9)
        rho = density_from_gamma(state_1)
        sigma = density_from_gamma(state_2)
        a = fidelity_dense(rho, sigma)
        b = fidelity_dense_product(rho, sigma)
        assert abs(a - b) < 1e-8


def test_fidelity_rank_deficient_inputs():
    # exact zero eigenvalues must not leak sqrt(noise) into the sum
    rng = np.random.default_rng(24)
    rho = random_density(16, rng, rank=3)
    sigma = random_density(16, rng, rank=5)
    f = fidelity_dense(rho, sigma)
    assert 0.0 <= f <= 1.0
    lifted = fidelity_dense(rho + 1e-14 * np.eye(16) / 16, sigma)
    assert abs(f - lifted) < 1e-6


def _fidelity_dense_reference(rho, sigma):
    """fidelity_dense with both states factored inside the call: the factor
    form must match it bit for bit."""
    b_h = []
    for x in (rho, sigma):
        w, v = np.linalg.eigh(x)
        keep = w > 1e-13 * max(w[-1], 0.0)
        b_h.append(np.ascontiguousarray((v[:, keep] * np.sqrt(w[keep])).conj().T))
    sv = np.linalg.svd(b_h[1] @ b_h[0].conj().T, compute_uv=False)
    return float(min(sv.sum(), 1.0))


def _fidelity_dense_eigensystems(rho, sigma):
    """The full-size eigensystem form fidelity_dense had before it took
    square-root factors: floored eigenvalues kept as zeros, and the
    singular values of the 2^ell x 2^ell sandwich."""
    w_r, v_r = np.linalg.eigh(rho)
    w_s, v_s = np.linalg.eigh(sigma)
    w_r = np.where(w_r > 1e-13 * max(w_r[-1], 0.0), w_r, 0.0)
    w_s = np.where(w_s > 1e-13 * max(w_s[-1], 0.0), w_s, 0.0)
    cross = (v_s.conj().T @ v_r) * np.sqrt(w_r)
    cross *= np.sqrt(w_s)[:, None]
    sv = np.linalg.svd(cross, compute_uv=False)
    return float(min(sv.sum(), 1.0))


def _xxz_rdms(ell):
    """Three reduced states of the XXZ L = 8, K = 0, n_down = 4 sector."""
    sector = xxz_sector_basis(8, 0, 4)
    return [xxz_eigen_rdm(sector, 1.3, i, ell) for i in range(3)]


def _fidelity_groups():
    """Groups of three states whose every ordered pair the fidelity tests
    compare: random full-rank states, XXZ reduced states past half the chain
    and pure Gaussian states.  The last two are rank deficient, with
    positive noise eigenvalues that only the floor zeroes."""
    rng = np.random.default_rng(26)
    groups = [[random_density(16, rng) for _ in range(3)]]
    groups += [_xxz_rdms(ell) for ell in range(5, 9)]
    groups.append([density_from_gamma(planted_state(np.ones(4), rng=rng)) for _ in range(3)])
    for group in groups[1:]:
        w = np.linalg.eigvalsh(group[0])
        assert np.any((w > 0.0) & (w <= 1e-13 * w[-1]))
    return groups


def test_fidelity_dense_takes_factors_bit_for_bit():
    for group in _fidelity_groups():
        # every ordered pair, each state with itself included
        for rho in group:
            for sigma in group:
                want = _fidelity_dense_reference(rho, sigma)
                f_rho, f_sigma = root_factor(rho), root_factor(sigma)
                for a, b in ((rho, sigma), (f_rho, sigma), (rho, f_sigma), (f_rho, f_sigma)):
                    assert fidelity_dense(a, b) == want


def test_fidelity_dense_factors_agree_with_the_eigensystem_form():
    # measured: 4.4e-16 from the eigensystem form, 1.8e-15 from F(a, a) = 1
    # and 3.3e-16 between F(a, b) and F(b, a)
    for group in _fidelity_groups():
        factors = [root_factor(rho) for rho in group]
        for rho, a in zip(group, factors):
            assert abs(fidelity_dense(a, a) - 1.0) < 4e-15
            for sigma, b in zip(group, factors):
                assert abs(fidelity_dense(a, b) - _fidelity_dense_eigensystems(rho, sigma)) < 1e-14
                assert abs(fidelity_dense(a, b) - fidelity_dense(b, a)) < 1e-15


def test_root_factor_keeps_only_weights_above_the_floor():
    # past half of the L = 8 chain, rank 2^(8 - ell) of 2^ell: the floor
    # drops the noise eigenvalues and nothing else
    rng = np.random.default_rng(27)
    pure = [density_from_gamma(planted_state(np.ones(4), rng=rng))]
    for rhos, rank in [(_xxz_rdms(ell), 2 ** (8 - ell)) for ell in range(5, 9)] + [(pure, 1)]:
        for rho in rhos:
            b_h = root_factor(rho).b_h
            assert b_h.shape == (rank, len(rho))
            tol = 1e-13 * np.linalg.eigvalsh(rho)[-1] + 1e-15
            assert np.abs(b_h.conj().T @ b_h - rho).max() < tol


# -------------------------------------------------------------- trace distance


def test_trace_distance_basics():
    rng = np.random.default_rng(30)
    rho = random_density(8, rng)
    sigma = random_density(8, rng)
    tau = random_density(8, rng)
    assert trace_distance(rho, rho) == 0.0
    d = trace_distance(rho, sigma)
    assert abs(d - trace_distance(sigma, rho)) < 1e-14
    assert trace_distance(rho, tau) <= d + trace_distance(sigma, tau) + 1e-12


def test_trace_distance_two_level_closed_form():
    rng = np.random.default_rng(31)
    for _ in range(10):
        p, q = rng.uniform(0.0, 1.0, size=2)
        rho = np.diag([p, 1 - p]).astype(complex)
        sigma = np.diag([q, 1 - q]).astype(complex)
        assert abs(trace_distance(rho, sigma) - abs(p - q)) < 1e-14


def test_trace_distance_orthogonal_pure_is_one():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(rho, sigma) - 1.0) < 1e-14


def test_trace_distance_of_stacks_matches_each_pair_bit_for_bit():
    rng = np.random.default_rng(32)
    rhos = np.stack([random_density(8, rng) for _ in range(5)])
    sigmas = np.stack([random_density(8, rng) for _ in range(5)])
    got = trace_distance(rhos, sigmas)
    assert got.shape == (5,)
    assert got.tolist() == [trace_distance(a, b) for a, b in zip(rhos, sigmas)]
    assert trace_distance(rhos.reshape(5, 1, 8, 8), sigmas.reshape(5, 1, 8, 8)).shape == (5, 1)
    with pytest.raises(ValueError):
        trace_distance(rhos, sigmas + np.triu(np.ones((8, 8))))


def test_trace_distance_rejects_non_hermitian_difference():
    rho = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        trace_distance(rho, np.eye(2, dtype=complex) / 2)


# --------------------------------------------------------------- partial trace


@pytest.mark.parametrize(
    "state, keep, match",
    [
        (np.ones(16), 0, "cannot keep"),
        (np.ones(16), 5, "cannot keep"),
        (np.ones(8), 2, "vector length"),
        (np.eye(8), 2, "matrix shape"),
        (np.ones((16, 8)), 2, "matrix shape"),
    ],
)
def test_partial_trace_rejects_bad_input(state, keep, match):
    with pytest.raises(ValueError, match=match):
        partial_trace(state, 4, keep)


def test_partial_trace_product_state():
    rng = np.random.default_rng(40)
    rho_a = random_density(4, rng)
    rho_b = random_density(4, rng)
    joint = np.kron(rho_a, rho_b)
    assert np.abs(partial_trace(joint, 4, 2) - rho_a).max() < 1e-13


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(41)
    rho = random_density(16, rng)
    red = partial_trace(rho, 4, 1)
    assert abs(np.trace(red) - 1.0) < 1e-13
    assert np.abs(red - red.conj().T).max() < 1e-13


def test_partial_trace_matches_gamma_restriction():
    # Gaussian marginals: dropping trailing sites truncates the m matrix
    rng = np.random.default_rng(42)
    for _ in range(5):
        state = random_mixed_state(4, rng, gmax=1.0)
        rho = density_from_gamma(state)
        for keep in (1, 2, 3):
            red = partial_trace(rho, 4, keep)
            want = density_from_gamma(state.restrict(keep))
            assert np.abs(red - want).max() < 1e-11
