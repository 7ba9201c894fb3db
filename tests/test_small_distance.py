"""Small Bures distances against the 40-digit oracle of ``mp_oracle``."""

import mpmath
import numpy as np
import pytest

import mp_oracle
from conftest import planted_state, random_mixed_state, stack
from fgdist.correlation import (
    SMALL_DISTANCE,
    CorrelationMatrix,
    _eigensystems,
    _metric_distances,
    _pair_kernel,
    bures_distances,
    pair_fidelities,
)
from fgdist.dense import density_from_gamma, fidelity_dense
from fgdist.experiments import apply_ordering
from fgdist.ising import enumerate_spectrum, subsystem_correlations


def _direction(ell, rng):
    a = rng.standard_normal((2 * ell, 2 * ell))
    return a - a.T


def _metric_parameter(state, other):
    """(D_m, t = D_m / sqrt(2 (1 - g_max))) of a pair as the pair kernel
    forms them, from the eigensystem of the more mixed state's Gamma."""
    if state.pair_values[0] > other.pair_values[0]:
        state, other = other, state
    d_m = _metric_distances(*_eigensystems(state.m[None]), state.m[None], other.m[None])[0]
    g_max = max(state.pair_values[0], other.pair_values[0])
    return d_m, d_m / np.sqrt(2.0 * (1.0 - g_max))


def _kernel(first, second):
    m = stack([first, second])
    close = _pair_kernel(m, [(0, 1)], metric=True)[1]
    return float(bures_distances(m, [(0, 1)])[0]), bool(close[0])


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_oracle_matches_the_dense_oracle(ell):
    rng = np.random.default_rng(20 + ell)
    a, b = random_mixed_state(ell, rng), random_mixed_state(ell, rng)
    rho = np.array(mp_oracle.wick_density(a.m).tolist(), dtype=complex)
    assert np.abs(rho - density_from_gamma(a)).max() < 1e-14
    f = float(mp_oracle.fidelity(a.m, b.m))
    assert abs(f - fidelity_dense(density_from_gamma(a), density_from_gamma(b))) < 1e-12


@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("eps", [1e-14, 1e-12, 1e-10, 1e-8, 1e-6])
def test_close_pairs_match_the_oracle(ell, eps):
    # m_2 = m_1 + eps A; the distance is about eps, and every one of them is
    # below the switch of these states, so each takes the metric path
    rng = np.random.default_rng(ell)
    first = random_mixed_state(ell, rng, gmax=0.8)
    second = CorrelationMatrix(first.m + eps * _direction(ell, rng), validate=False)
    got, close = _kernel(first, second)
    d_m, t = _metric_parameter(first, second)
    assert close and got == d_m and t < SMALL_DISTANCE
    want = float(mp_oracle.bures_distance(first.m, second.m, dps=50))
    # the stated remainder, plus the oracle's own resolution
    assert abs(got - want) <= t * (1 + 3 * t) * d_m + 1e-13 * want


@pytest.mark.parametrize("ell", [2, 3])
def test_both_sides_of_the_switch_match_the_oracle(ell):
    rng = np.random.default_rng(40 + ell)
    first = random_mixed_state(ell, rng, gmax=0.8)
    direction = _direction(ell, rng)
    unit_t = _metric_parameter(first, CorrelationMatrix(first.m + 1e-9 * direction, validate=False))[1] / 1e-9
    for side in (0.9, 1.1):
        # t is linear in eps to far below the tolerance of this placement
        second = CorrelationMatrix(first.m + side * SMALL_DISTANCE / unit_t * direction, validate=False)
        got, close = _kernel(first, second)
        d_m, t = _metric_parameter(first, second)
        assert close == (side < 1.0) == (t < SMALL_DISTANCE)
        want = float(mp_oracle.bures_distance(first.m, second.m))
        if close:
            assert abs(got - want) <= t * (1 + 3 * t) * d_m
        else:
            # sqrt(2 (1 - F)) with F good to about ten ulp: an error 1e-15 / D
            assert abs(got - want) <= 2e-15 / want
        assert abs(got - want) <= 1e-4 * want


def test_single_mode_distances_match_the_oracle():
    # states one ulp apart: sqrt(2 (1 - F)) read 1.49e-8 here; the oracle
    # needs 60 digits to resolve 1 - F = 3.4e-33
    g = -0.7439191125308634
    first, second = planted_state([g]), planted_state([np.nextafter(g, -1.0)])
    got, direct = _kernel(first, second)
    want = float(mp_oracle.bures_distance(first.m, second.m, dps=60))
    assert direct and abs(want - 8.3067e-17) < 1e-21
    assert abs(got - want) <= 1e-15 * want
    rng = np.random.default_rng(60)
    for g1, g2 in rng.uniform(-1.0, 1.0, size=(20, 2)):
        first, second = planted_state([g1]), planted_state([g2])
        want = float(mp_oracle.bures_distance(first.m, second.m))
        assert abs(_kernel(first, second)[0] - want) <= 1e-15 * want
    # equal unit values put a zero denominator next to a zero difference
    for g in (-1.0, 1.0):
        assert _kernel(planted_state([g]), planted_state([g]))[0] == 0.0


def test_the_path_stays_off_with_unit_modes():
    rng = np.random.default_rng(7)
    rotation = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    first = planted_state([1.0, 0.6, 0.2], rotation=rotation)
    states = [first] + [
        CorrelationMatrix(first.m + eps * _direction(3, rng), validate=False) for eps in (1e-14, 1e-12, 1e-10)
    ]
    pairs = [(0, k) for k in range(len(states))]
    assert not _pair_kernel(stack(states), pairs, metric=True)[1].any()
    gap = np.maximum(1.0 - pair_fidelities(stack(states), pairs), 0.0)
    assert np.array_equal(bures_distances(stack(states), pairs), np.sqrt(2.0 * gap))
    # L = 8, ell = 4: consecutive Ising states with unit modes, where the
    # metric would divide by zero; pytest turns its RuntimeWarning into an error
    m = subsystem_correlations(apply_ordering(enumerate_spectrum(1.0, 8), "charges:default"), 4)
    states = [CorrelationMatrix(row, validate=False) for row in m]
    pairs = [(i, i + 1) for i in range(len(states) - 1)]
    _, close = _pair_kernel(m, pairs, metric=True)
    with_units = [p for p, (i, j) in enumerate(pairs) if states[i].unit_pair_count() or states[j].unit_pair_count()]
    assert with_units and not close[with_units].any()


def test_ising_ell_2_average_matches_the_oracle():
    # the frozen L = 8, h = 1, ell = 2 row: 23 of its 255 consecutive pairs
    # agree to 1e-12 in m, and sqrt(2 (1 - F)) put them at up to 2.1e-8
    m = subsystem_correlations(apply_ordering(enumerate_spectrum(1.0, 8), "charges:default"), 2)
    pairs = [(i, i + 1) for i in range(len(m) - 1)]
    got = bures_distances(m, pairs)
    with mpmath.workdps(mp_oracle.DIGITS):
        want = [mp_oracle.bures_distance(m[i], m[j]) for i, j in pairs]
        average = float(sum(want) / len(want))
    assert np.abs(got - np.array(want, dtype=float)).max() < 1e-12
    assert abs(float(got.mean()) - average) < 1e-12
    assert _pair_kernel(m, pairs, metric=True)[1].sum() == 23


@pytest.mark.parametrize("ell", [2, 3, 4, 5, 6])
def test_metric_screen_moves_no_bit(ell):
    # pairs on both sides of the switch, and far ones the screen drops: the
    # direct flags and every value are those of computing D_m for every pair
    rng = np.random.default_rng(70 + ell)
    first = random_mixed_state(ell, rng, gmax=0.8)
    direction = _direction(ell, rng)
    unit_t = _metric_parameter(first, CorrelationMatrix(first.m + 1e-9 * direction, validate=False))[1] / 1e-9
    sides = [0.5, 0.9, 0.99, 1.01, 1.1, 1.9, 2.1, 4.0, 30.0, 1e3]
    states = [first] + [CorrelationMatrix(first.m + side * SMALL_DISTANCE / unit_t * direction, validate=False)
                        for side in sides] + [random_mixed_state(ell, rng, gmax=0.8) for _ in range(4)]
    m = stack(states)
    pairs = [(0, k) for k in range(1, len(states))] + [(k, 0) for k in range(1, len(states))]
    values, direct = _pair_kernel(m, pairs, metric=True)
    # the reference: D_m of every pair, in one stack, as before the screen
    largest = np.array([state.pair_values[0] for state in states])
    first_of = [i if largest[i] <= largest[j] else j for i, j in pairs]
    second_of = [j if largest[i] <= largest[j] else i for i, j in pairs]
    d_m = _metric_distances(*_eigensystems(m[first_of]), m[first_of], m[second_of])
    switch = SMALL_DISTANCE * np.sqrt(2.0 * (1.0 - largest[second_of]))
    near = d_m < switch
    assert np.array_equal(direct, near)
    assert np.array_equal(values[near], d_m[near])
    assert np.array_equal(values[~near], pair_fidelities(m, pairs)[~near])
    # the screen both kept pairs that turned out not near and dropped some
    bound = np.linalg.norm(m[second_of] - m[first_of], axis=(1, 2)) / 4.0
    assert np.all(bound <= d_m * (1 + 1e-12))
    assert np.any(~near & (bound < 2.0 * switch)) and np.any(bound >= 2.0 * switch)
