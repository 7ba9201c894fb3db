"""Correlation-matrix layer: canonical form, composition, fidelity branches.

Reference values come from the 4^ell dense oracle in fgdist.dense and, for
commuting inputs, from the exact per-mode product formula.
"""

import logging
from collections import Counter

import numpy as np
import pytest

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
    STACK_ELEMENTS,
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
from oracles import gamma_from_density


def dense_fidelity_of(state_1, state_2):
    return fidelity_dense(density_from_gamma(state_1), density_from_gamma(state_2))


# ---------------------------------------------------------------- construction


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        CorrelationMatrix(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        CorrelationMatrix(np.zeros((3, 3)))
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
    for _ in range(25):
        ell = int(rng.integers(1, 6))
        state = random_mixed_state(ell, rng, gmax=1.0)
        form = canonical_form(state)
        o = form.rotation
        assert np.abs(o @ o.T - np.eye(2 * ell)).max() < 1e-12
        assert np.abs(o @ state.m @ o.T - _block_matrix(form.pair_values)).max() < 1e-10
        g = form.pair_values
        assert np.all(np.diff(g) <= 1e-15)  # descending
        assert g.min() >= 0.0 and g.max() <= 1.0


def test_canonical_form_zero_pairs():
    # exact zeros exercise the 1x1 Schur block pairing path
    rng = np.random.default_rng(12)
    state = planted_state([0.7, 0.0, 0.0], rng=rng)
    form = canonical_form(state)
    assert np.allclose(np.sort(form.pair_values), [0.0, 0.0, 0.7], atol=1e-12)


def test_canonical_form_pair_value_inside_slack():
    # pair values up to EIGENVALUE_SLACK above 1 are snapped to 1, as by
    # pair_values; the reconstruction is checked before the snap
    rng = np.random.default_rng(21)
    other = random_mixed_state(3, rng)
    for offset in (5e-11, 2e-10, 5e-10, 9e-10):
        state = planted_state([1.0 + offset, 0.5, 0.3], rng=rng)
        assert canonical_form(state).pair_values[0] == 1.0
        assert abs(fidelity(state, other) - dense_fidelity_of(state, other)) < 1e-12
    beyond = planted_state([1.0 + 2e-9, 0.5, 0.3], rng=rng)
    with pytest.raises(ValueError, match="beyond slack"):
        canonical_form(beyond)
    with pytest.raises(ValueError):
        fidelity(beyond, other)


def test_pair_values_match_canonical_form():
    rng = np.random.default_rng(13)
    state = random_mixed_state(4, rng)
    assert np.abs(state.pair_values - canonical_form(state).pair_values).max() < 1e-12


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
    prefactor, bulk_r, bulk_s = reduce_unit_modes(s1, s2, canonical_form(s1))
    assert abs(prefactor - np.sqrt((1 + 0.8) / 2)) < 1e-13
    assert np.abs(np.sort(bulk_r.pair_values) - [0.2, 0.5]).max() < 1e-12
    assert np.abs(np.sort(bulk_s.pair_values) - [0.1, 0.6]).max() < 1e-12
    assert abs(fidelity(s1, s2) - factorized_fidelity(g_r, g_s)) < 1e-13


def test_reduction_orthogonal_units_give_zero():
    # occupied against empty on the same mode kills the overlap outright
    s1 = planted_state([1.0, 0.5])
    s2 = planted_state([-1.0, 0.5])
    assert fidelity(s1, s2) == 0.0
    prefactor, bulk_r, bulk_s = reduce_unit_modes(s1, s2, canonical_form(s1))
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
        reduce_unit_modes(mixed, mixed, canonical_form(mixed))


def test_reduce_unit_modes_rejects_form_without_units():
    # only the reference state's form counts: unit pairs of the other state
    # do not make a reduction on a strictly mixed reference
    rng = np.random.default_rng(63)
    pure_ish = planted_state([1.0, 0.4], rng=rng)
    mixed = random_mixed_state(2, rng)
    with pytest.raises(ValueError, match="0 < unit pairs < total pairs"):
        reduce_unit_modes(mixed, pure_ish, canonical_form(mixed))


def test_reduce_unit_modes_rejects_form_with_all_units():
    # a pure reference leaves no bulk to recurse on
    rng = np.random.default_rng(75)
    pure = planted_state(np.ones(2), rotation=rand_rotation(4, rng))
    mixed = random_mixed_state(2, rng)
    with pytest.raises(ValueError, match="0 < unit pairs < total pairs"):
        reduce_unit_modes(pure, mixed, canonical_form(pure))


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
    # pair value within a few ulp of the unit threshold: the svd count and
    # the Schur partition may disagree; result must still be near the oracle
    rng = np.random.default_rng(92)
    for bump in (0.0, 1e-26, -1e-26, 2e-16):
        g = 1.0 - 1e-10 + bump
        s1 = planted_state([g, 0.5], rng=rng)
        s2 = random_mixed_state(2, rng)
        f = fidelity(s1, s2)
        assert abs(f - dense_fidelity_of(s1, s2)) < 1e-7


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
    states = [pure, partial, edge] + [random_mixed_state(3, rng) for _ in range(6)]
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
    # the pair kernel reads every state's pair values from one SVD of the
    # stack and hands them to the states of its scalar pass
    seen = []
    original = correlation._dispatch

    def recording_dispatch(state_1, state_2):
        seen.extend((state_1, state_2))
        return original(state_1, state_2)

    for h in (0.9, 1.0, 1.06):
        table = apply_ordering(enumerate_spectrum(h, 10), "charges:default")
        for ell in (3, 4):
            m = subsystem_correlations(table, ell)
            stacked = correlation._snapped_pair_values(np.linalg.svd(m, compute_uv=False))
            for values, row in zip(stacked, m):
                assert np.array_equal(values, CorrelationMatrix(row, validate=False).pair_values)
    # ell > L/2: reduce pairs, whose states the scalar pass makes
    monkeypatch.setattr(correlation, "_dispatch", recording_dispatch)
    m = np.stack([state.m for state in sample_ensemble(RandomEnsembleSpec(L=8, count=6, seed=3))])
    for ell in (5, 6):
        pair_fidelities(m[:, : 2 * ell, : 2 * ell], [(i, j) for i in range(6) for j in range(i + 1, 6)])
    assert len(seen) >= 2 * 15 * 2
    for state in seen:
        assert np.array_equal(state.pair_values, CorrelationMatrix(state.m.copy(), validate=False).pair_values)


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
        rho = density_stack(np.stack([states[i].m, states[j].m]))
        assert abs(f - fidelity_dense(rho[0], rho[1])) < 1e-12


def test_pair_kernel_rejects_other_shapes():
    # the kernel takes one (n, 2 ell, 2 ell) stack and nothing else
    for shape in [(4, 4), (1, 3, 3), (1, 4, 6), (1, 0, 0), (2, 1, 4, 4)]:
        with pytest.raises(ValueError):
            pair_fidelities(np.zeros(shape), [(0, 0)])
        with pytest.raises(ValueError):
            bures_distances(np.zeros(shape), [(0, 0)])


@pytest.mark.parametrize("ell", [1, 2])
def test_pair_kernel_rejects_indices_outside_the_stack(ell):
    # a negative index must not address a state from the end of the stack;
    # the trace path checks the same way, and no pairs give no values
    m = stack([random_mixed_state(ell, np.random.default_rng(ell)) for _ in range(3)])
    for distances in (
        lambda pairs: pair_fidelities(m, pairs),
        lambda pairs: bures_distances(m, pairs),
        lambda pairs: _pair_distances(m, pairs, "trace"),
    ):
        for pairs in ([(0, -1)], [(-3, 1)], [(0, 1), (2, 3)]):
            with pytest.raises(ValueError, match=r"pair indices must lie in 0\.\.2"):
                distances(pairs)
        assert distances([]).shape == (0,)


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
    spec = RandomEnsembleSpec(L=8, count=6, seed=3)
    forms, rows = Counter(), Counter()
    original_form, original_eigensystems = correlation.canonical_form, correlation._eigensystems

    def counting_form(state):
        forms[state.m.tobytes()] += 1
        return original_form(state)

    def counting_eigensystems(ms):
        rows.update(m.tobytes() for m in ms)
        return original_eigensystems(ms)

    monkeypatch.setattr(correlation, "canonical_form", counting_form)
    monkeypatch.setattr(correlation, "_eigensystems", counting_eigensystems)
    states = sample_ensemble(spec)
    # ell <= L/2: all pairs regular, so every eigensystem is of a sweep state
    # and no canonical form is computed
    random_sweep(spec, "bures", [2, 3, 4])
    assert 0 < sum(rows.values()) <= 3 * spec.count
    assert not forms
    # ell > L/2: reduce pairs take the canonical form of their reference
    # state, and their bulk states are decomposed once per pair
    random_sweep(spec, "bures", [5, 6])
    assert forms
    for ell in (2, 3, 4, 5, 6):
        assert all(rows[s.restrict(ell).m.tobytes()] <= 1 for s in states)
        assert all(forms[s.restrict(ell).m.tobytes()] <= 1 for s in states)


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
