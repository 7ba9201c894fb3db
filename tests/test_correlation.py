"""Correlation-matrix layer: canonical form, composition, fidelity branches.

Reference values come from the 4^ell dense oracle in fgdist.dense and, for
commuting inputs, from the exact per-mode product formula.
"""

import logging
from collections import Counter

import numpy as np
import pytest

import mp_oracle
from conftest import (
    commuting_pair,
    factorized_fidelity,
    planted_state,
    rand_rotation,
    rand_special_rotation,
    random_mixed_state,
    stack,
)
from fgdist import correlation
from fgdist.correlation import (
    ANTISYMMETRY_TOL,
    STACK_ELEMENTS,
    UNIT_MODE_TOL,
    CorrelationMatrix,
    bures_distance,
    bures_distances,
    canonical_form,
    fidelity,
    fidelity_single_mode,
    gaussian_compose,
    gaussian_product_trace,
    pair_fidelities,
    reduce_unit_modes,
    _antisymmetrize,
    _block_matrix,
    _compose_complex,
    _eigensystems,
    _half_matrices,
)
from fgdist.dense import (
    density_from_gamma,
    density_stack,
    fidelity_dense,
    trace_distance,
)
from fgdist.experiments import _pair_distances, apply_ordering, ising_sweep, random_sweep
from fgdist.ising import enumerate_spectrum, subsystem_correlations
from fgdist.random_ensemble import RandomEnsembleSpec, sample_ensemble
from oracles import embed_parity_blocks, gamma_from_density


def dense_fidelity_of(state_1, state_2):
    return fidelity_dense(density_from_gamma(state_1), density_from_gamma(state_2))


# ---------------------------------------------------------------- construction


def test_constructor_rejects_bad_input():
    # a shape error reports the shape given, for a matrix as for a stack
    with pytest.raises(ValueError, match=r"got shape \(3, 4\)$"):
        CorrelationMatrix(np.zeros((3, 4)))
    with pytest.raises(ValueError, match=r"got shape \(3, 3\)$"):
        CorrelationMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"got shape \(2, 4, 4\)$"):
        CorrelationMatrix(np.zeros((2, 4, 4)))
    with pytest.raises(ValueError, match=r"got shape \(4, 4\)$"):
        pair_fidelities(np.zeros((4, 4)), [(0, 1)])
    bad = np.array([[0.0, 0.3], [0.3, 0.0]])  # symmetric, not antisymmetric
    with pytest.raises(ValueError):
        CorrelationMatrix(bad)
    # NaN passes an antisymmetry test and inf makes it warn; both are
    # rejected before it, with no RuntimeWarning (an error under pytest)
    for entry in (np.nan, np.inf, -np.inf):
        m = planted_state([0.5, 0.2]).m.copy()
        m[0, 3], m[3, 0] = entry, -entry
        with pytest.raises(ValueError, match="non-finite"):
            CorrelationMatrix(m)


def test_pair_value_slack():
    # within slack of 1: snapped; beyond: rejected lazily on first access
    ok = planted_state([1.0 + 1e-10])
    assert ok.pair_values[0] == 1.0
    bad = planted_state([1.0 + 1e-8])
    with pytest.raises(ValueError):
        bad.pair_values


def test_restrict_bounds():
    state = planted_state([0.5, 0.2])
    assert state.restrict(1).ell == 1
    with pytest.raises(ValueError):
        state.restrict(3)
    with pytest.raises(ValueError):
        state.restrict(0)


# ------------------------------------------------------------- canonical form


def test_canonical_form_roundtrip():
    rng = np.random.default_rng(11)
    states = [random_mixed_state(int(rng.integers(1, 6)), rng, gmax=1.0) for _ in range(25)]
    # exact zero and repeated pair values: degenerate eigenspaces of i m, where
    # the eigenvectors of the zero pairs give rows that need not be orthonormal
    for g in ([0.0], [0.7, 0.0, 0.0], [0.5, 0.5, 0.5, 0.0], [1.0, 1.0, 0.6, 0.0, 0.0], [0.3, 0.0, 0.3, 0.0, 0.3, 0.0]):
        states += [planted_state(g), planted_state(g, rng=rng)]
    # most of these Ising states have zero pair values
    table = apply_ordering(enumerate_spectrum(1.0, 8), "charges:default")
    states += [CorrelationMatrix(m, validate=False) for m in subsystem_correlations(table, 4)]
    for state in states:
        ell = state.ell
        o = canonical_form(state)
        assert np.abs(o @ o.T - np.eye(2 * ell)).max() < 1e-12
        assert np.abs(o @ state.m @ o.T - _block_matrix(state.pair_values)).max() < 1e-10
        g = state.pair_values
        assert np.all(np.diff(g) <= 1e-15)  # descending
        assert g.min() >= 0.0 and g.max() <= 1.0


def test_canonical_form_zero_pairs():
    # exact zeros: the rows of the null space of m come from the QR completion
    rng = np.random.default_rng(12)
    state = planted_state([0.7, 0.0, 0.0], rng=rng)
    o = canonical_form(state)
    assert np.allclose(np.sort(state.pair_values), [0.0, 0.0, 0.7], atol=1e-12)
    assert np.allclose(np.sort(np.diag(o @ state.m @ o.T, 1)[::2]), [0.0, 0.0, 0.7], atol=1e-12)


def test_canonical_form_pair_value_inside_slack():
    # pair values up to EIGENVALUE_SLACK above 1 are snapped to 1, as by
    # pair_values, and beyond it rejected
    rng = np.random.default_rng(21)
    other = random_mixed_state(3, rng)
    for offset in (5e-11, 2e-10, 5e-10, 9e-10):
        state = planted_state([1.0 + offset, 0.5, 0.3], rng=rng)
        canonical_form(state)  # inside the slack: no raise
        assert state.pair_values[0] == 1.0
        assert abs(fidelity(state, other) - dense_fidelity_of(state, other)) < 1e-12
    beyond = planted_state([1.0 + 2e-9, 0.5, 0.3], rng=rng)
    with pytest.raises(ValueError, match="beyond slack"):
        canonical_form(beyond)
    with pytest.raises(ValueError):
        fidelity(beyond, other)


def test_pair_values_match_canonical_form():
    rng = np.random.default_rng(13)
    state = random_mixed_state(4, rng)
    o = canonical_form(state)
    assert np.abs(state.pair_values - np.diag(o @ state.m @ o.T, 1)[::2]).max() < 1e-12


# -------------------------------------------------------------- product trace


def test_product_trace_identities():
    # purity of the maximally mixed single mode is 1/2
    mixed = planted_state([0.0])
    assert abs(gaussian_product_trace(mixed, mixed) - 0.5) < 1e-15
    up = planted_state([1.0])
    down = planted_state([-1.0])
    assert abs(gaussian_product_trace(up, up) - 1.0) < 1e-15
    assert gaussian_product_trace(up, down) == 0.0


def test_product_trace_matches_dense():
    rng = np.random.default_rng(21)
    for _ in range(20):
        ell = int(rng.integers(1, 4))
        s1 = random_mixed_state(ell, rng, gmax=1.0)
        s2 = random_mixed_state(ell, rng, gmax=1.0)
        want = np.trace(density_from_gamma(s1) @ density_from_gamma(s2)).real
        assert abs(gaussian_product_trace(s1, s2) - want) < 1e-12


def test_product_trace_shape_mismatch():
    with pytest.raises(ValueError):
        gaussian_product_trace(planted_state([0.1]), planted_state([0.1, 0.2]))


# ---------------------------------------------------------------- composition


def test_compose_matches_dense_product():
    rng = np.random.default_rng(31)
    for _ in range(15):
        ell = int(rng.integers(1, 4))
        s1 = random_mixed_state(ell, rng)
        s2 = random_mixed_state(ell, rng)
        prod = density_from_gamma(s1) @ density_from_gamma(s2)
        prod /= np.trace(prod)
        want = gamma_from_density(prod)  # complex antisymmetric for products
        if isinstance(want, CorrelationMatrix):  # commuting factors: Hermitian
            want = 1j * want.m
        got = gaussian_compose(s1, s2)
        assert np.abs(got - want).max() < 1e-10


def test_compose_rejects_unequal_sizes():
    with pytest.raises(ValueError):
        gaussian_compose(planted_state([0.1]), planted_state([0.1, 0.2]))


def test_compose_accepts_products():
    # second application runs the complex path; compare against rho1 rho2 rho3
    rng = np.random.default_rng(32)
    s1, s2, s3 = (random_mixed_state(2, rng) for _ in range(3))
    triple = density_from_gamma(s1) @ density_from_gamma(s2) @ density_from_gamma(s3)
    triple /= np.trace(triple)
    got = _antisymmetrize(_compose_complex(gaussian_compose(s1, s2), 1j * s3.m))
    assert np.abs(got - gamma_from_density(triple)).max() < 1e-10


def test_compose_chain_trace():
    # symmetric chain: tr(rho1 rho2 rho1) is real; generic triples are not
    rng = np.random.default_rng(33)
    for _ in range(10):
        s1, s2 = (random_mixed_state(3, rng) for _ in range(2))
        r1, r2 = (density_from_gamma(s) for s in (s1, s2))
        want = np.trace(r1 @ r2 @ r1).real
        pair = gaussian_product_trace(s1, s2)
        # tr(rho_12 rho_1) = sqrt(det((1 + Gamma_12 Gamma_1) / 2)), real up to a residue
        det = np.linalg.det((np.eye(6) + gaussian_compose(s1, s2) @ (1j * s1.m)) / 2.0)
        assert abs(det.imag) < 1e-10 * max(1.0, abs(det.real))
        got = pair * np.sqrt(det.real)
        assert abs(got - want) < 1e-12


def test_compose_idempotent_state():
    # rho^2 / tr rho^2 of a canonical state keeps the basis, maps g -> 2g/(1+g^2)
    rng = np.random.default_rng(34)
    g = rng.uniform(0.1, 0.9, size=3)
    state = planted_state(g, rng=rng)
    sq = gaussian_compose(state, state)
    assert np.abs(sq.real).max() < 1e-12  # Hermitian product: gamma = i m
    vals = np.sort(np.linalg.svd(sq.imag, compute_uv=False)[0::2])
    assert np.abs(vals - np.sort(2 * g / (1 + g * g))).max() < 1e-12


def test_compose_singular_product_raises():
    up = planted_state([1.0])
    down = planted_state([-1.0])
    with pytest.raises(ValueError):
        gaussian_compose(up, down)


# ------------------------------------------------------------------ half state


def test_half_state_pair_values():
    rng = np.random.default_rng(41)
    g = rng.uniform(0.0, 0.999, size=4)
    state = planted_state(g, rng=rng)
    half = CorrelationMatrix(_half_matrices(*_eigensystems(state.m[None]))[0], validate=False)
    want = np.sort(g / (1 + np.sqrt(1 - g * g)))
    assert np.abs(np.sort(half.pair_values) - want).max() < 1e-12


def test_half_state_squares_back():
    rng = np.random.default_rng(42)
    state = random_mixed_state(3, rng)
    half = CorrelationMatrix(_half_matrices(*_eigensystems(state.m[None]))[0], validate=False)
    back = gaussian_compose(half, half)
    assert np.abs(back - 1j * state.m).max() < 1e-11


# ----------------------------------------------------------------- single mode


def test_single_mode_closed_form():
    assert abs(fidelity_single_mode(0.3, 0.7) - 0.9724322221137173) < 1e-15
    assert fidelity_single_mode(0.4, 0.4) == 1.0
    assert fidelity_single_mode(1.0, -1.0) == 0.0
    with pytest.raises(ValueError):
        fidelity_single_mode(1.1, 0.0)


def test_single_mode_matches_dense():
    rng = np.random.default_rng(51)
    for _ in range(30):
        g1, g2 = rng.uniform(-1.0, 1.0, size=2)
        s1 = planted_state([g1])
        s2 = planted_state([g2])
        assert abs(fidelity(s1, s2) - dense_fidelity_of(s1, s2)) < 1e-12


def test_single_mode_sign_sensitivity():
    # dispatch at ell=1 must use the signed off-diagonal entry, not |g|
    s1 = planted_state([0.6])
    s2 = planted_state([-0.6])
    assert abs(fidelity(s1, s2) - 0.8) < 1e-14  # (sqrt(1.6*0.4)+sqrt(0.4*1.6))/2


# -------------------------------------------------------------- regular branch


def test_regular_branch_matches_dense():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(60):
        ell = int(rng.integers(2, 5))
        s1 = random_mixed_state(ell, rng)
        s2 = random_mixed_state(ell, rng)
        err = abs(fidelity(s1, s2) - dense_fidelity_of(s1, s2))
        worst = max(worst, err)
    assert worst < 1e-11


def test_regular_branch_identity_and_symmetry():
    rng = np.random.default_rng(62)
    for _ in range(10):
        s1 = random_mixed_state(3, rng)
        s2 = random_mixed_state(3, rng)
        assert abs(fidelity(s1, s1) - 1.0) < 1e-12
        assert abs(fidelity(s1, s2) - fidelity(s2, s1)) < 1e-12


def test_gray_ladder_against_dense():
    # near-unit pair values, still below the dispatch threshold
    rng = np.random.default_rng(64)
    for eps in (1e-4, 1e-5):
        for _ in range(10):
            g1 = np.array([1 - eps * rng.uniform(1, 3), rng.uniform(0.2, 0.8), rng.uniform(0.0, 0.5)])
            g2 = np.array([1 - eps * rng.uniform(1, 3), rng.uniform(0.2, 0.8), rng.uniform(0.0, 0.5)])
            s1 = planted_state(g1, rng=rng)
            s2 = planted_state(g2, rng=rng)
            assert abs(fidelity(s1, s2) - dense_fidelity_of(s1, s2)) < 2e-10


def test_gray_commuting_exact():
    # deeper than the dense oracle certifies; the per-mode product is exact
    rng = np.random.default_rng(65)
    for eps, tol in ((1e-6, 5e-9), (1e-7, 5e-9), (1e-8, 3e-8)):
        for _ in range(8):
            g1 = np.array([1 - eps, rng.uniform(0.2, 0.8), rng.uniform(0.0, 0.5)])
            g2 = np.array([1 - eps * rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.8), 0.0])
            s1, s2 = commuting_pair(g1, g2, rng)
            assert abs(fidelity(s1, s2) - factorized_fidelity(g1, g2)) < tol


def test_regular_error_adds_up_over_aligned_near_unit_modes():
    # each mode whose pair value lies within 1e-6 of 1 in both states costs up
    # to ~1e-8 absolute, and the costs add up: over 600 pairs at ell = 28
    # (seeds 0-9, the near-unit values drawn apart or shared by the two
    # states) the worst error was 8.3e-9 per such mode, 1.2e-7 with 25 of them
    rng = np.random.default_rng(0)
    ell = 28
    for aligned in (1, 5, 25):
        for _ in range(10):
            g1, g2 = (
                np.concatenate([1.0 - 10.0 ** rng.uniform(-10, -6, aligned), rng.uniform(0.0, 0.9, ell - aligned)])
                for _ in range(2)
            )
            s1, s2 = commuting_pair(g1, g2, rng)
            assert s1.unit_pair_count() == s2.unit_pair_count() == 0
            assert abs(fidelity(s1, s2) - factorized_fidelity(g1, g2)) < 1e-8 * aligned


def test_near_unit_regular_pairs_log_no_warning(caplog):
    # composing amplifies rounding by about ||(1 + Gamma_2 Gamma_1)^{-1}||^2,
    # so at 1 - g = 1e-10 the residues pass any absolute threshold; relative
    # to each matrix's largest entry they stay rounding-sized.  The L = 10
    # Ising sweep has pairs whose composite Gamma is near 0, of order 1e-16,
    # with residues that are rounding of order-1 terms
    rng = np.random.default_rng(66)
    with caplog.at_level(logging.WARNING, logger="fgdist.correlation"):
        for ell in range(2, 7):
            states = [planted_state(1.0 - 10.0 ** rng.uniform(-10, -1, size=ell), rng=rng) for _ in range(80)]
            assert not any(state.unit_pair_count() for state in states)
            pair_fidelities(stack(states), [(i, i + 1) for i in range(79)])
        ising_sweep(10, 1.0, "bures", [3])
    assert not caplog.records


def test_non_antisymmetric_composite_warns(caplog):
    gamma = 1j * random_mixed_state(3, np.random.default_rng(67)).m
    gamma[0, 1] += 1e-3 * np.abs(gamma).max()
    with caplog.at_level(logging.WARNING, logger="fgdist.correlation"):
        _antisymmetrize(gamma)
    assert any("antisymmetry deviation" in record.getMessage() for record in caplog.records)


# ---------------------------------------------------------------- pure branch


def test_pure_branch_same_parity_matches_dense():
    rng = np.random.default_rng(71)
    for _ in range(15):
        ell = int(rng.integers(2, 4))
        s1 = planted_state(np.ones(ell), rotation=rand_special_rotation(2 * ell, rng))
        s2 = planted_state(np.ones(ell), rotation=rand_special_rotation(2 * ell, rng))
        f = fidelity(s1, s2)
        assert abs(f - dense_fidelity_of(s1, s2)) < 1e-9
        assert f > 0.0


def test_pure_branch_cross_parity_orthogonal():
    # opposite-determinant rotations flip fermion parity; the overlap trace
    # is exact zero, so the returned value is the quartic root of determinant
    # roundoff (~1e-8 worst case), not a clean machine zero
    rng = np.random.default_rng(72)
    for _ in range(10):
        even = rand_special_rotation(6, rng)
        odd = rand_special_rotation(6, rng)
        odd[:, 0] = -odd[:, 0]
        s1 = planted_state(np.ones(3), rotation=even)
        s2 = planted_state(np.ones(3), rotation=odd)
        assert fidelity(s1, s2) < 2e-6
        assert dense_fidelity_of(s1, s2) < 1e-12


def test_pure_branch_identity():
    rng = np.random.default_rng(73)
    s = planted_state(np.ones(3), rotation=rand_rotation(6, rng))
    assert abs(fidelity(s, s) - 1.0) < 1e-12


def test_pure_vs_mixed_uses_sqrt_overlap():
    rng = np.random.default_rng(74)
    for _ in range(10):
        pure = planted_state(np.ones(2), rotation=rand_rotation(4, rng))
        mixed = random_mixed_state(2, rng)
        got = fidelity(pure, mixed)
        want = np.sqrt(gaussian_product_trace(pure, mixed))
        assert abs(got - want) < 1e-13
        assert abs(got - dense_fidelity_of(pure, mixed)) < 1e-10


# ----------------------------------------------------------- reduction branch


def test_reduction_branch_matches_dense():
    rng = np.random.default_rng(81)
    for _ in range(20):
        ell = int(rng.integers(3, 5))
        g1 = rng.uniform(0.0, 0.9, size=ell)
        g1[: rng.integers(1, ell)] = 1.0  # exact unit pairs, bulk strictly mixed
        s1 = planted_state(g1, rng=rng)
        s2 = random_mixed_state(ell, rng)
        assert abs(fidelity(s1, s2) - dense_fidelity_of(s1, s2)) < 1e-10
    # zero pair values in the bulk: the reference's rotation completes their rows
    s1 = planted_state([1.0, 1.0, 0.6, 0.0, 0.0], rng=rng)
    s2 = random_mixed_state(5, rng)
    assert abs(fidelity(s1, s2) - dense_fidelity_of(s1, s2)) < 1e-10


def test_reduction_near_unit_bulk():
    # unit pairs on one side plus a gray pair on the other
    rng = np.random.default_rng(82)
    for _ in range(10):
        s1 = planted_state([1.0, rng.uniform(0.3, 0.7), 0.2], rng=rng)
        s2 = planted_state([1 - 1e-5, rng.uniform(0.3, 0.7), 0.4], rng=rng)
        assert abs(fidelity(s1, s2) - dense_fidelity_of(s1, s2)) < 2e-10


def test_reduction_swaps_to_more_unit_pairs():
    # dispatch must reduce on the state with more unit pairs regardless of order
    rng = np.random.default_rng(83)
    s1 = planted_state([1.0, 1.0, 0.5], rng=rng)
    s2 = planted_state([1.0, 0.6, 0.3], rng=rng)
    want = dense_fidelity_of(s1, s2)
    assert abs(fidelity(s1, s2) - want) < 1e-10
    assert abs(fidelity(s2, s1) - want) < 1e-10


def test_reduction_prefactor_block_case():
    # commuting case: unit mode against s1 contributes sqrt((1+s1)/2)
    g_r = np.array([1.0, 0.5, 0.2])
    g_s = np.array([0.8, 0.6, 0.1])
    s1 = planted_state(g_r)
    s2 = planted_state(g_s)
    prefactor, bulk_r, bulk_s = reduce_unit_modes(s1, s2)
    assert abs(prefactor - np.sqrt((1 + 0.8) / 2)) < 1e-13
    assert np.abs(np.sort(bulk_r.pair_values) - [0.2, 0.5]).max() < 1e-12
    assert np.abs(np.sort(bulk_s.pair_values) - [0.1, 0.6]).max() < 1e-12
    assert abs(fidelity(s1, s2) - factorized_fidelity(g_r, g_s)) < 1e-13


def test_reduction_orthogonal_units_give_zero():
    # occupied against empty on the same mode kills the overlap outright
    s1 = planted_state([1.0, 0.5])
    s2 = planted_state([-1.0, 0.5])
    assert fidelity(s1, s2) == 0.0
    prefactor, bulk_r, bulk_s = reduce_unit_modes(s1, s2)
    assert prefactor == 0.0 and bulk_r is None and bulk_s is None


def test_reduction_keeps_small_fidelities():
    # an occupied mode against a nearly empty one: the unit-block factor is
    # det^(1/4), so fidelities far below sqrt(det) must survive the reduction
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for eps in (1e-11, 1e-10, 1e-8, 1.9e-7, 1e-6, 1e-4):
            g_r, g_s = [1.0, 0.5], [-1.0 + eps, 0.5]
            s1, s2 = commuting_pair(g_r, g_s, rng)
            assert abs(fidelity(s1, s2) - factorized_fidelity(g_r, g_s)) < 1e-9


def test_reduction_keeps_small_fidelities_behind_many_unit_pairs():
    # 1 - s_x r_x has kappa_2 ~ 2 / eps, inside the guard, but from x = 4 on
    # its kappa_1 passes 1 / (2 x INVERTIBILITY_TOL): the SVD, not kappa_1,
    # must decide, or these fidelities read 0
    rng = np.random.default_rng(8)
    for x in (4, 8, 16):
        for eps in (1e-11, 3e-11):
            g_r, g_s = [1.0] * x + [0.5], [-1.0 + eps] + [1.0] * (x - 1) + [0.5]
            s1, s2 = commuting_pair(g_r, g_s, rng)
            assert abs(fidelity(s1, s2) - factorized_fidelity(g_r, g_s)) < 1e-9


def test_reduce_unit_modes_guards():
    rng = np.random.default_rng(84)
    mixed = random_mixed_state(2, rng)
    with pytest.raises(ValueError):
        reduce_unit_modes(mixed, mixed)


def test_reduce_unit_modes_rejects_form_without_units():
    # only the reference state's form counts: unit pairs of the other state
    # do not make a reduction on a strictly mixed reference
    rng = np.random.default_rng(63)
    pure_ish = planted_state([1.0, 0.4], rng=rng)
    mixed = random_mixed_state(2, rng)
    with pytest.raises(ValueError, match="0 < unit pairs < total pairs"):
        reduce_unit_modes(mixed, pure_ish)


def test_reduce_unit_modes_rejects_form_with_all_units():
    # a pure reference leaves no bulk to recurse on
    rng = np.random.default_rng(75)
    pure = planted_state(np.ones(2), rotation=rand_rotation(4, rng))
    mixed = random_mixed_state(2, rng)
    with pytest.raises(ValueError, match="0 < unit pairs < total pairs"):
        reduce_unit_modes(pure, mixed)


def test_reduce_unit_modes_rejects_states_of_unequal_size():
    # as fidelity and gaussian_compose do, before any matrix product
    rng = np.random.default_rng(91)
    small, large = planted_state([1.0, 0.6, 0.3, 0.2, 0.1], rng=rng), planted_state([1.0, 0.5] + [0.4] * 4, rng=rng)
    for a, b in [(small, large), (large, small)]:
        with pytest.raises(ValueError, match="same number of modes"):
            reduce_unit_modes(a, b)


# -------------------------------------------------------------------- dispatch


def test_dispatch_symmetry_across_branches():
    rng = np.random.default_rng(91)
    pure = planted_state(np.ones(3), rotation=rand_special_rotation(6, rng))
    partial = planted_state([1.0, 0.6, 0.2], rng=rng)
    mixed = random_mixed_state(3, rng)
    states = [pure, partial, mixed]
    for a in states:
        for b in states:
            assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-12


def test_dispatch_knife_edge_no_crash():
    # pair values within a few ulp of 1 - 1e-10, a thousand times
    # UNIT_MODE_TOL from 1: the regular branch takes them, where snapping them
    # to 1 would cost about 5e-6, and the result must be near the oracle
    rng = np.random.default_rng(92)
    for bump in (0.0, 1e-26, -1e-26, 2e-16):
        g = 1.0 - 1e-10 + bump
        s1 = planted_state([g, 0.5], rng=rng)
        s2 = random_mixed_state(2, rng)
        f = fidelity(s1, s2)
        assert abs(f - dense_fidelity_of(s1, s2)) < 1e-7


def test_fidelity_error_across_the_unit_threshold():
    # above UNIT_MODE_TOL the pair takes the regular branch; at and below it
    # the reduction snaps the pair value to 1, at a cost of about
    # sqrt(eps (1 - g_s)) / 2 against the 40-digit oracle.  The threshold
    # sits where the two errors cross.  Over seeds 0-5 the worst errors were
    # 6.3e-10 above it and 1.6e-7 at and below it
    rng = np.random.default_rng(0)
    for eps in (1e-6, 1e-8, 1e-10, 1e-11, 1e-12, 3e-13, 1.2e-13, 1e-13, 8e-14, 1e-14, 1e-15, 2e-16):
        s1 = planted_state([1.0 - eps, 0.5, 0.3], rng=rng)
        assert s1.unit_pair_count() == (eps <= UNIT_MODE_TOL)
        bound = 1e-9 if eps > UNIT_MODE_TOL else 3e-7
        for _ in range(5):
            s2 = random_mixed_state(3, rng)
            assert abs(fidelity(s1, s2) - float(mp_oracle.fidelity(s1.m, s2.m))) < bound


def test_fidelity_stays_in_unit_interval_on_every_branch():
    # F(rho, rho) of a pure state is sqrt of an overlap determinant that can
    # round a few ulp above 1; every branch must clamp into [0, 1]
    rng = np.random.default_rng(93)
    pures = []
    for _ in range(300):
        ell = int(rng.integers(2, 6))
        pures.append(planted_state(np.ones(ell), rotation=rand_rotation(2 * ell, rng)))
    values = [fidelity(s, s) for s in pures]
    states = [
        planted_state(np.ones(3), rotation=rand_rotation(6, rng)),
        planted_state([1.0, 0.6, 0.2], rng=rng),
        planted_state([1.0 - 1e-10, 0.5, 0.1], rng=rng),
        random_mixed_state(3, rng),
        random_mixed_state(3, rng, gmax=1.0),
    ]
    values += [fidelity(a, b) for a in states for b in states]
    single = [planted_state([g]) for g in (0.3, -0.8, 1.0, -1.0)]
    values += [fidelity(a, b) for a in single for b in single]
    values = np.array(values)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_fidelity_shape_mismatch():
    with pytest.raises(ValueError):
        fidelity(planted_state([0.1]), planted_state([0.1, 0.2]))


# ---------------------------------------------------------- batched pair kernel


def scalar_fidelities(states, pairs):
    return np.array([fidelity(states[i], states[j]) for i, j in pairs])


def test_pair_kernel_partial_last_stack():
    rng = np.random.default_rng(111)
    ell = 3
    per_stack = STACK_ELEMENTS // (2 * ell) ** 2
    states = [random_mixed_state(ell, rng) for _ in range(40)]
    pairs = [(int(i), int(j)) for i, j in rng.integers(0, 40, size=(2 * per_stack + 7, 2))]
    assert len(pairs) % per_stack != 0
    got = pair_fidelities(stack(states), pairs)
    assert np.array_equal(got, scalar_fidelities(states, pairs))


def test_pair_kernel_stack_of_one():
    rng = np.random.default_rng(112)
    states = [random_mixed_state(4, rng) for _ in range(2)]
    got = pair_fidelities(stack(states), [(0, 1)])
    assert got.shape == (1,)
    assert got[0] == fidelity(states[0], states[1])
    assert pair_fidelities(stack(states), []).shape == (0,)


def test_pair_kernel_swaps_roles_within_a_stack():
    # the regular formula puts the more mixed state first; a stack holding
    # both orders of the same pairs must give identical values per order
    rng = np.random.default_rng(113)
    sharp = [planted_state([0.9, 0.3, 0.1], rng=rng) for _ in range(3)]
    broad = [planted_state([0.5, 0.3, 0.1], rng=rng) for _ in range(3)]
    states = sharp + broad
    forward = [(i, 3 + i) for i in range(3)]  # state_1 is the less mixed one
    backward = [(j, i) for i, j in forward]
    got = pair_fidelities(stack(states), forward + backward)
    assert np.array_equal(got[:3], got[3:])
    assert np.array_equal(got, scalar_fidelities(states, forward + backward))


def test_pair_kernel_matches_scalar_fidelity_bitwise():
    rng = np.random.default_rng(114)
    pure = planted_state(np.ones(3), rotation=rand_special_rotation(6, rng))
    partial = planted_state([1.0, 0.6, 0.2], rng=rng)
    edge = planted_state([1.0 - 1e-10, 0.5, 0.1], rng=rng)
    # equal pair values in different bases: their top values tie to rounding,
    # and both paths must break each tie the same way
    tied = [planted_state(values, rng=rng) for values in 2 * [[0.8, 0.5, 0.2]] + 2 * [[1.0, 0.7, 0.4]]]
    states = [pure, partial, edge] + tied + [random_mixed_state(3, rng) for _ in range(6)]
    # every ordered pair: regular, reduce and pure pairs interleaved
    pairs = [(i, j) for i in range(len(states)) for j in range(len(states))]
    got = pair_fidelities(stack(states), pairs)
    assert np.array_equal(got, scalar_fidelities(states, pairs))
    gap = np.maximum(1.0 - got, 0.0)
    # a state with no unit pairs against itself takes the second-order
    # metric, which is exactly 0; every other pair is sqrt(2 (1 - F))
    want = np.sqrt(2.0 * gap)
    want[[p for p, (i, j) in enumerate(pairs) if i == j and states[i].unit_pair_count() == 0]] = 0.0
    assert np.array_equal(bures_distances(stack(states), pairs), want)
    single = [planted_state([g]) for g in (0.3, -0.8, 1.0)]
    single_pairs = [(0, 1), (1, 2), (2, 0)]
    assert np.array_equal(pair_fidelities(stack(single), single_pairs), scalar_fidelities(single, single_pairs))


def test_stacked_pair_values_match_per_state_bitwise(monkeypatch):
    # the pair kernel reads every state's pair values from its stacked eigh
    # and hands that eigensystem to the states of the scalar dispatch; the
    # bulk state_s of a reduce pair takes its pair values from an eigvalsh
    seen, bulk_s = [], []
    original, original_reduce = correlation._dispatch, correlation.reduce_unit_modes

    def recording_dispatch(state_1, state_2):
        seen.extend((state_1, state_2))
        return original(state_1, state_2)

    def recording_reduce(state_r, state_s):
        reduced = original_reduce(state_r, state_s)
        bulk_s.append(reduced[2])
        return reduced

    for h in (0.9, 1.0, 1.06):
        table = apply_ordering(enumerate_spectrum(h, 10), "charges:default")
        for ell in (3, 4):
            m = subsystem_correlations(table, ell)
            stacked = correlation._pair_values_of(correlation._eigensystems(m)[0])
            for values, row in zip(stacked, m):
                assert np.array_equal(values, CorrelationMatrix(row, validate=False).pair_values)
    # ell > L/2: reduce pairs, whose states the kernel makes for the dispatch
    monkeypatch.setattr(correlation, "_dispatch", recording_dispatch)
    monkeypatch.setattr(correlation, "reduce_unit_modes", recording_reduce)
    m = np.stack([state.m for state in sample_ensemble(RandomEnsembleSpec(L=8, count=6, seed=3))])
    for ell in (5, 6):
        pair_fidelities(m[:, : 2 * ell, : 2 * ell], [(i, j) for i in range(6) for j in range(i + 1, 6)])
    assert len(seen) >= 2 * 15 * 2 and bulk_s
    for state in seen:
        if any(state is made for made in bulk_s):
            want = correlation._pair_values_of(np.linalg.eigvalsh(1j * state.m.copy()))
        else:
            want = CorrelationMatrix(state.m.copy(), validate=False).pair_values
        assert np.array_equal(state.pair_values, want)


def test_degenerate_regular_state_matches_the_dense_oracle():
    # state 2078 of the L = 12, h = 0.95 table has the fourfold pair value
    # 0.5576775358252053 at ell = 2 and no unit pairs; a real Schur form of
    # its m is not found, but the regular branch needs none
    table = apply_ordering(enumerate_spectrum(0.95, 12), "charges:default")
    assert ising_sweep(12, 0.95, "bures", [2]).rows[0][2] == len(table) - 1
    states = [CorrelationMatrix(m, validate=False) for m in subsystem_correlations(table, 2)]
    assert states[2078].unit_pair_count() == 0
    assert np.ptp(states[2078].pair_values) < 1e-15
    pairs = [(2077, 2078), (2078, 2079)]
    got = pair_fidelities(stack(states), pairs)
    assert np.array_equal(got, scalar_fidelities(states, pairs))
    for (i, j), f in zip(pairs, got):
        rho = embed_parity_blocks(density_stack(np.stack([states[i].m, states[j].m])))
        assert abs(f - fidelity_dense(rho[0], rho[1])) < 1e-12


def test_pair_kernel_rejects_other_shapes():
    # the kernel takes one (n, 2 ell, 2 ell) stack and nothing else
    for shape in [(4, 4), (1, 3, 3), (1, 4, 6), (1, 0, 0), (2, 1, 4, 4)]:
        with pytest.raises(ValueError):
            pair_fidelities(np.zeros(shape), [(0, 0)])
        with pytest.raises(ValueError):
            bures_distances(np.zeros(shape), [(0, 0)])


def test_stack_with_a_non_finite_state_raises_value_error():
    # as CorrelationMatrix does, before LAPACK sees the entries: an SVD or
    # eigh of them would not converge, and the Wick expansion gives NaN
    m = stack([random_mixed_state(3, np.random.default_rng(115)) for _ in range(3)])
    m[1, 0, 1], m[1, 1, 0] = np.nan, np.nan
    for build in (
        lambda: bures_distances(m, [(0, 1), (1, 2)]),
        lambda: pair_fidelities(m, [(0, 1), (1, 2)]),
        lambda: _pair_distances(m, [(0, 1), (1, 2)], "trace"),
        lambda: density_stack(m),
    ):
        with pytest.raises(ValueError, match="non-finite") as info:
            build()
        assert not isinstance(info.value, np.linalg.LinAlgError)


def test_stack_that_is_not_antisymmetric_raises_value_error():
    # the kernel reads only the eigensystem of i m, which is Hermitian only
    # for antisymmetric m: a symmetric part would be dropped without a word
    rng = np.random.default_rng(116)
    m = stack([random_mixed_state(2, rng) for _ in range(3)])
    symmetric = rng.standard_normal(m.shape)
    symmetric += np.swapaxes(symmetric, 1, 2)
    builds = (
        lambda m: bures_distances(m, [(0, 1), (1, 2)]),
        lambda m: pair_fidelities(m, [(0, 1), (1, 2)]),
        lambda m: _pair_distances(m, [(0, 1), (1, 2)], "trace"),
        lambda m: density_stack(m),
    )
    for build in builds:
        with pytest.raises(ValueError, match="not antisymmetric"):
            build(m + 0.1 * symmetric)
    # a deviation up to ANTISYMMETRY_TOL passes, as CorrelationMatrix lets it
    within = m + 0.45 * ANTISYMMETRY_TOL / np.abs(symmetric).max() * symmetric
    assert np.abs(within + np.swapaxes(within, 1, 2)).max() <= ANTISYMMETRY_TOL
    for build in builds:
        build(within)
    CorrelationMatrix(within[0])


@pytest.mark.parametrize("ell", [3, 5, 6])
def test_kernel_equals_the_scalar_path_bit_for_bit_on_nearly_antisymmetric_stacks(ell):
    # both read the input made exactly antisymmetric: at ell = 3 these pure
    # states' pairs are regular, at ell = 5 and 6 they take the reduce branch
    rng = np.random.default_rng(8)
    m = np.stack([state.m for state in sample_ensemble(RandomEnsembleSpec(L=8, count=6, seed=1))])
    m = m[:, : 2 * ell, : 2 * ell]
    symmetric = rng.standard_normal(m.shape)
    symmetric += np.swapaxes(symmetric, 1, 2)
    within = m + 0.45 * ANTISYMMETRY_TOL / np.abs(symmetric).max() * symmetric
    given = within.copy()
    pairs = [(i, j) for i in range(len(m)) for j in range(i + 1, len(m))]
    states = [CorrelationMatrix(row) for row in within]
    assert pair_fidelities(within, pairs).tolist() == [fidelity(states[i], states[j]) for i, j in pairs]
    assert bures_distances(within, pairs).tolist() == [bures_distance(states[i], states[j]) for i, j in pairs]
    assert np.array_equal(within, given)  # the caller's stack is not changed
    exact = correlation._state_stack(m)
    assert np.shares_memory(exact, m) and np.array_equal(exact, m)  # an exact stack is not copied


@pytest.mark.parametrize("ell", [1, 2])
def test_pair_kernel_rejects_indices_outside_the_stack(ell):
    # a negative index must not address a state from the end of the stack,
    # nor a float or bool index be truncated to a state; the trace path
    # checks the same way, and no pairs give no values
    m = stack([random_mixed_state(ell, np.random.default_rng(ell)) for _ in range(3)])
    for distances in (
        lambda pairs: pair_fidelities(m, pairs),
        lambda pairs: bures_distances(m, pairs),
        lambda pairs: _pair_distances(m, pairs, "trace"),
    ):
        for pairs in ([(0, -1)], [(-3, 1)], [(0, 1), (2, 3)], [(2**70, 0)], [(0, -(2**70))]):
            with pytest.raises(ValueError, match=r"pair indices must lie in 0\.\.2"):
                distances(pairs)
        # anything but k pairs of two indices: no pair is read off a flat list
        for pairs in ([(0, 1, 2, 0)], [0, 1], [0], [[(0, 1)]], [(0, 1), (2,)], [[]], np.zeros((0, 3), dtype=int)):
            with pytest.raises(ValueError, match="shape"):
                distances(pairs)
        for pairs in ([(0.9, 1.7)], [(True, 2)], [(0, 1), (1.0, 2.0)], np.array([[0, 1]], dtype=float)):
            with pytest.raises(ValueError, match="pair indices must be integers"):
                distances(pairs)
        assert distances([]).shape == (0,)
        assert distances(np.array([[2, 0]], dtype=np.uint8)).shape == (1,)


def test_pair_kernel_shape_mismatch():
    small, large = planted_state([0.1, 0.2]), planted_state([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        pair_fidelities([small.m, large.m], [(0, 1)])
    for a, b in [(small, large), (large, small)]:
        with pytest.raises(ValueError, match="same number of modes"):
            fidelity(a, b)
        with pytest.raises(ValueError, match="same number of modes"):
            bures_distance(a, b)


def test_regular_sweep_builds_no_state_objects(monkeypatch):
    # every pair of an ell <= L/2 random sweep is regular: the kernel works
    # on the stack and makes no CorrelationMatrix
    spec = RandomEnsembleSpec(L=8, count=6, seed=3)
    want = random_sweep(spec, "bures", [2, 3, 4]).rows
    made = Counter()
    original = correlation.CorrelationMatrix.__init__

    def counting_init(self, m, **kwargs):
        made["states"] += 1
        original(self, m, **kwargs)

    monkeypatch.setattr(correlation.CorrelationMatrix, "__init__", counting_init)
    m = np.stack([state.m for state in sample_ensemble(spec)])
    made.clear()
    pairs = [(i, j) for i in range(spec.count) for j in range(i + 1, spec.count)]
    for ell in (2, 3, 4):
        bures_distances(m[:, : 2 * ell, : 2 * ell], pairs)
        pair_fidelities(m[:, : 2 * ell, : 2 * ell], pairs)
    assert not made
    assert random_sweep(spec, "bures", [2, 3, 4]).rows == want
    assert made["states"] == spec.count  # the sampled states, not the kernel


def test_sweep_decomposes_each_state_once(monkeypatch):
    # at every ell each sweep state takes exactly one eigh of its Gamma, which
    # gives its pair values, half state and canonical form, and no SVD
    spec = RandomEnsembleSpec(L=8, count=6, seed=3)
    forms, rows, svd_inputs = Counter(), Counter(), Counter()
    original_form, original_eigensystems = correlation.canonical_form, correlation._eigensystems
    original_svd = np.linalg.svd

    def counting_form(state):
        forms[state.m.tobytes()] += 1
        return original_form(state)

    def counting_eigensystems(ms):
        rows.update(m.tobytes() for m in np.reshape(ms, (-1, *np.shape(ms)[-2:])))
        return original_eigensystems(ms)

    def counting_svd(a, *args, **kwargs):
        svd_inputs.update(x.tobytes() for x in np.reshape(a, (-1, *np.shape(a)[-2:])))
        return original_svd(a, *args, **kwargs)

    monkeypatch.setattr(correlation, "canonical_form", counting_form)
    monkeypatch.setattr(correlation, "_eigensystems", counting_eigensystems)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    states = sample_ensemble(spec)
    # ell <= L/2: all pairs regular, so no canonical form is computed
    random_sweep(spec, "bures", [2, 3, 4])
    assert sum(rows.values()) == 3 * spec.count
    assert not forms
    # ell > L/2: reduce pairs take the canonical form of their reference
    # state; their bulk states are counted by the tests below
    random_sweep(spec, "bures", [5, 6, 7])
    assert forms and svd_inputs
    for ell in range(2, 8):
        inputs = [s.restrict(ell).m.tobytes() for s in states]
        assert [rows[b] for b in inputs] == [1] * spec.count
        assert all(forms[b] <= 1 for b in inputs)
        assert not any(svd_inputs[b] for b in inputs)


def test_bulk_state_decides_branch_and_order_as_its_eigh_would(monkeypatch):
    # at ell > L/2 of the critical Ising chain, bulk states of reduce pairs
    # tie with their reference's top pair value, or have unit pairs of
    # their own; those take their eigh, the others their eigvalsh, and
    # either way the dispatch decides as the eigh pair values would
    reduced = []
    original = correlation.reduce_unit_modes

    def recording_reduce(state_r, state_s):
        reduced.append(original(state_r, state_s))
        return reduced[-1]

    monkeypatch.setattr(correlation, "reduce_unit_modes", recording_reduce)
    table = apply_ordering(enumerate_spectrum(1.0, 10), "charges:default")
    pair_fidelities(subsystem_correlations(table, 6), [(i, i + 1) for i in range(len(table) - 1)])
    taken = Counter()
    for _, bulk_r, bulk_s in reduced:
        if bulk_s is None:
            continue
        by_eigh = CorrelationMatrix(bulk_s.m.copy(), validate=False)
        assert bulk_s.unit_pair_count() == by_eigh.unit_pair_count()
        assert (bulk_r.pair_values[0] > bulk_s.pair_values[0]) == (bulk_r.pair_values[0] > by_eigh.pair_values[0])
        if bulk_s.eigenvalues is bulk_s.eigensystem[0]:
            taken["eigh"] += 1
            want = by_eigh.pair_values
        else:
            taken["eigvalsh"] += 1
            want = correlation._pair_values_of(np.linalg.eigvalsh(1j * bulk_s.m.copy()))
        assert np.array_equal(bulk_s.pair_values, want)
    assert taken["eigh"] and taken["eigvalsh"]


def _count_eigh(monkeypatch) -> list:
    """The matrices np.linalg.eigh decomposes from now on, one per entry."""
    decomposed = []
    original = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        decomposed.extend(x.tobytes() for x in np.reshape(a, (-1, *np.shape(a)[-2:])))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return decomposed


def test_reduce_sweep_decomposes_no_bulk_state_per_pair(monkeypatch):
    # the regular formula reads only the top pair value of the bulk state_s
    # of a reduce pair while bulk_r is the more mixed, so an all-pairs reduce
    # sweep takes one eigh per input state and one per reference bulk state,
    # and one per pair only where bulk_s is the more mixed
    spec = RandomEnsembleSpec(L=8, count=6, seed=3)
    m = np.stack([state.m for state in sample_ensemble(spec)])
    pairs = [(i, j) for i in range(spec.count) for j in range(i + 1, spec.count)]
    bulk_references, bulk_s_mixed = {}, {}
    for ell in (5, 6, 7):
        states = [CorrelationMatrix(row, validate=False) for row in m[:, : 2 * ell, : 2 * ell]]
        references, mixed = set(), 0
        for i, j in pairs:
            r, s = (j, i) if states[j].unit_pair_count() > states[i].unit_pair_count() else (i, j)
            assert 0 < states[r].unit_pair_count() < ell
            _, bulk_r, bulk_s = reduce_unit_modes(states[r], states[s])
            if bulk_r.ell > 1:
                assert not (bulk_r.unit_pair_count() or bulk_s.unit_pair_count())
                references.add(r)
                mixed += bool(bulk_r.pair_values[0] > bulk_s.pair_values[0])
        bulk_references[ell], bulk_s_mixed[ell] = len(references), mixed
    assert bulk_references == {5: 5, 6: 5, 7: 0} and bulk_s_mixed == {5: 3, 6: 0, 7: 0}
    decomposed = _count_eigh(monkeypatch)
    for ell in (5, 6, 7):
        decomposed.clear()
        pair_fidelities(m[:, : 2 * ell, : 2 * ell], pairs)
        inputs = [np.ascontiguousarray(1j * row[: 2 * ell, : 2 * ell]).tobytes() for row in m]
        assert [decomposed.count(b) for b in inputs] == [1] * spec.count
        assert len(decomposed) == spec.count + bulk_references[ell] + bulk_s_mixed[ell]


def test_more_mixed_bulk_state_takes_its_eigh_lazily(monkeypatch):
    # here the Schur-corrected bulk state_s is the more mixed one, so the
    # regular formula composes its half state and its eigh runs after all
    rng = np.random.default_rng(2)
    a = planted_state([1.0, 0.5, 0.4], rng=rng)
    b = planted_state([1.0, 0.2, 0.1], rng=rng)
    _, bulk_r, bulk_s = reduce_unit_modes(a, b)
    assert bulk_s.pair_values[0] < bulk_r.pair_values[0]
    decomposed = _count_eigh(monkeypatch)
    got = pair_fidelities(stack([a, b]), [(0, 1)])
    # the two inputs in one stack, then the bulk states of the pair
    assert len(decomposed) == 4 and {len(x) for x in decomposed[2:]} == {16 * 16}
    fresh = [CorrelationMatrix(s.m, validate=False) for s in (a, b)]
    assert got[0] == fidelity(*fresh)
    assert abs(got[0] - dense_fidelity_of(a, b)) < 1e-12


def test_scalar_fidelity_rotates_each_reference_state_once(monkeypatch):
    # a state with 0 < unit pairs < ell is the reference of the reduce branch
    # against strictly mixed states, and keeps its rotation between calls
    calls = Counter()
    original = correlation.canonical_form

    def counting_form(state):
        calls[state.m.tobytes()] += 1
        return original(state)

    monkeypatch.setattr(correlation, "canonical_form", counting_form)
    rng = np.random.default_rng(117)
    a = planted_state([1.0, 0.6, 0.3], rng=rng)
    others = [random_mixed_state(3, rng) for _ in range(4)]
    assert 0 < a.unit_pair_count() < a.ell
    got = [fidelity(a, b) for b in others]
    assert calls == {a.m.tobytes(): 1}
    assert got == [fidelity(CorrelationMatrix(a.m, validate=False), b) for b in others]


# ------------------------------------------------------------------- distances


def test_bures_distance_basics():
    rng = np.random.default_rng(101)
    s1 = random_mixed_state(3, rng)
    s2 = random_mixed_state(3, rng)
    # sqrt(2(1-F)) turns a 1e-15 fidelity error into ~1e-7 at coincidence
    assert bures_distance(s1, s1) < 1e-6
    f = fidelity(s1, s2)
    assert abs(bures_distance(s1, s2) - np.sqrt(2 * (1 - f))) < 1e-14
    up = planted_state([1.0])
    down = planted_state([-1.0])
    assert abs(bures_distance(up, down) - np.sqrt(2.0)) < 1e-15


def test_fuchs_van_de_graaf_bounds():
    rng = np.random.default_rng(102)
    for _ in range(20):
        ell = int(rng.integers(2, 4))
        s1 = random_mixed_state(ell, rng, gmax=1.0)
        s2 = random_mixed_state(ell, rng, gmax=1.0)
        f = fidelity(s1, s2)
        d = trace_distance(density_from_gamma(s1), density_from_gamma(s2))
        assert 1 - f <= d + 1e-9
        assert d <= np.sqrt(1 - f * f) + 1e-9
