"""Ozaki-split residuals and the refined solve, against exact arithmetic."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import mp_oracle
from conftest import commuting_pair, factorized_fidelity, planted_state, rand_rotation, stack
from fgdist import correlation
from fgdist.correlation import (
    INVERTIBILITY_TOL,
    SECOND_STEP_NKAPPA,
    _compose_complex,
    _residual,
    _row_split,
    _solve_refined,
    _split,
    pair_fidelities,
)

exact = np.vectorize(Fraction, otypes=[object])


def _scaled(shape, rng, spread, zero_axis):
    """Normal entries scaled by 2^k per row (zero_axis -1) or column (-2),
    k up to ``spread``, with some rows or columns zeroed."""
    v = rng.standard_normal(shape)
    scale_shape = list(shape)
    scale_shape[zero_axis] = 1
    v *= np.exp2(rng.integers(-spread, spread + 1, size=scale_shape))
    zero = rng.random(shape[zero_axis - 1 if zero_axis == -1 else -1]) < 0.2
    if zero_axis == -1:
        v[zero, :] = 0.0
    else:
        v[:, zero] = 0.0
    return v


def _embedding(a):
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 128), k=st.integers(1, 3), spread=st.integers(0, 60), seed=st.integers(0, 2**32 - 1),
       complex_=st.booleans())
@example(n=128, k=3, spread=60, seed=0, complex_=False)
@example(n=128, k=3, spread=60, seed=1, complex_=True)
def test_leading_product_is_exact(n, k, spread, seed, complex_):
    rng = np.random.default_rng(seed)
    if complex_:
        half = max(1, n // 2)
        a = _scaled((half, half), rng, spread, -1) + 1j * _scaled((half, half), rng, spread, -1)
        x = _scaled((half, k), rng, spread, -2) + 1j * _scaled((half, k), rng, spread, -2)
        a, x = _embedding(a), np.concatenate([x.real, x.imag])
    else:
        a, x = _scaled((n, n), rng, spread, -1), _scaled((n, k), rng, spread, -2)
    inner = a.shape[-1]
    a1, a2 = _split(a, -1, inner)
    x1, x2 = _split(x, -2, inner)
    assert np.array_equal(a1 + a2, a) and np.array_equal(x1 + x2, x)
    assert (exact(a1 @ x1) == exact(a1) @ exact(x1)).all()


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_complex_residual_goes_through_the_embedding(n, seed):
    # a near-solution x, as in refinement: the residual is small
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
    x = np.linalg.solve(a, b)
    got = _residual(*_row_split(a), x, b)
    ar, ai, xr, xi = exact(a.real), exact(a.imag), exact(x.real), exact(x.imag)
    want_re = exact(b.real) - (ar @ xr - ai @ xi)
    want_im = exact(b.imag) - (ar @ xi + ai @ xr)
    scale = (np.abs(a) @ np.abs(x)).max()
    err = max(np.abs((exact(got.real) - want_re).astype(float)).max(),
              np.abs((exact(got.imag) - want_im).astype(float)).max())
    size = max(np.abs(want_re.astype(float)).max(), np.abs(want_im.astype(float)).max())
    # one rounding of the residual itself, plus the Ozaki bound
    assert err <= 2.0**-52 * size + 2.0**-70 * scale


def _conditioned(n, cond, rng):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * np.logspace(0, -np.log10(cond), n)) @ q2.T


def _long_double_residual(a, x, b):
    high = np.longdouble
    return (b.astype(high) - a.astype(high) @ x.astype(high)).astype(float)


def _mp(v):
    return mpmath.matrix(v.tolist())


def _exact_residual(a, x, b):
    with mpmath.workdps(50):
        return _mp(b) - _mp(a) * _mp(x)


def _relative_error(r, r_exact):
    with mpmath.workdps(50):
        return float(mpmath.mnorm(_mp(r) - r_exact, 1) / mpmath.mnorm(r_exact, 1))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 12), log_cond=st.floats(2.0, 10.0), seed=st.integers(0, 2**32 - 1))
# the residual cancels to 6.1e-17 here: a relative error of 1.2e-5 from an
# absolute one well inside the bound
@example(n=2, log_cond=3.375, seed=2304)
def test_residual_is_no_worse_than_long_double(n, log_cond, seed):
    # the unrefined solution's residual, the one the first refinement step
    # needs; where np.longdouble is float64 the comparison only gets easier
    rng = np.random.default_rng(seed)
    a = _conditioned(n, 10.0**log_cond, rng)
    b = rng.standard_normal((n, 2))
    x = np.linalg.solve(a, b)
    r_exact = _exact_residual(a, x, b)
    got = _residual(*_row_split(a), x, b)
    assert _relative_error(got, r_exact) <= _relative_error(_long_double_residual(a, x, b), r_exact)
    # the _residual docstring's absolute bound 2^(beta - 106) |a| |x|, which
    # does not shrink with |r|.  The split parts are bounded by their row's or
    # column's largest magnitude, so |a| |x| is n max_j |a_ij| max_j |x_jk|;
    # two roundings of the residual itself, and to first order the n-term
    # roundings of the three small products and of their sum, 4 (n + 3)
    with mpmath.workdps(50):
        err = max(abs(float(v)) for v in _mp(got) - r_exact)
    size = max(abs(float(v)) for v in r_exact)
    beta = math.ceil((53 + math.log2(n)) / 2)
    scale = n * (np.abs(a).max(axis=1)[:, None] * np.abs(x).max(axis=0)).max()
    assert err <= 2.0**-52 * size + 4 * (n + 3) * 2.0 ** (beta - 106) * scale


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 12), log_cond=st.floats(2.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_refined_solution_is_no_worse_than_long_double(n, log_cond, seed):
    rng = np.random.default_rng(seed)
    a = _conditioned(n, 10.0**log_cond, rng)
    b = rng.standard_normal((n, 1))
    x_ld = np.linalg.solve(a, b)
    for _ in range(2):
        x_ld = x_ld + np.linalg.solve(a, _long_double_residual(a, x_ld, b))
    x = _solve_refined(a, b)
    with mpmath.workdps(50):
        want = mpmath.lu_solve(_mp(a), _mp(b))
        scale = float(mpmath.mnorm(want, 1))
        err, err_ld = (float(mpmath.mnorm(_mp(v) - want, 1)) for v in (x, x_ld))
        res, res_ld = (float(mpmath.mnorm(_exact_residual(a, v, b), 1)) for v in (x, x_ld))
    # both land within a few ulp of the exact solution; the float64 rounding
    # of x itself sets the floor for either route
    ulp = 2.0**-52 * n
    assert err <= err_ld + ulp * scale
    assert res <= res_ld + ulp * float(np.abs(a).sum(axis=0).max()) * scale


def _unitary(n, rng, complex_):
    z = rng.standard_normal((n, n))
    if complex_:
        z = z + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(z)[0]


def _conditioned_stack(n, conds, rng, complex_):
    """One real or complex matrix of 2-norm condition number ``cond`` per
    entry of ``conds``, stacked."""
    return np.stack([(_unitary(n, rng, complex_) * np.logspace(0, -np.log10(cond), n)) @ _unitary(n, rng, complex_).conj().T
                     for cond in conds])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 16), log_conds=st.lists(st.floats(9.0, 17.0), min_size=1, max_size=3),
       stacked=st.booleans(), complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=2, log_conds=[12.1], stacked=False, complex_=False, seed=0)
@example(n=16, log_conds=[3.0, 12.05, 5.0], stacked=True, complex_=True, seed=1)
def test_kappa_1_guard_fires_wherever_cond_does(n, log_conds, stacked, complex_, seed):
    # kappa_2 <= n kappa_1, so 1/kappa_2 < tol implies 1/kappa_1 < n tol
    rng = np.random.default_rng(seed)
    a = _conditioned_stack(n, 10.0 ** np.array(log_conds), rng, complex_)
    if not stacked:
        a = a[0]
    b = np.ones(a.shape[:-1] + (1,))
    if np.any(1.0 / np.linalg.cond(a) < INVERTIBILITY_TOL):
        with pytest.raises(np.linalg.LinAlgError):
            _solve_refined(a, b)


def test_exactly_singular_core_in_a_stack_raises_value_error():
    # the middle pair puts an occupied mode against an empty one, so its core
    # 1 + Gamma_2 Gamma_1 is exactly singular and inv itself raises
    rng = np.random.default_rng(7)
    g1, g2 = (np.stack([1j * planted_state(rng.uniform(0.0, 0.9, 2), rng=rng).m for _ in range(3)]) for _ in range(2))
    g1[1], g2[1] = 1j * planted_state([1.0, 0.5]).m, 1j * planted_state([-1.0, 0.5]).m
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.eye(4) + g2[1] @ g1[1])
    with pytest.raises(ValueError) as info:
        _compose_complex(g1, g2)
    assert not isinstance(info.value, np.linalg.LinAlgError)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 12), k=st.integers(1, 3), log_cond=st.floats(10.0, 12.0), complex_=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_refined_stacks_are_accurate_up_to_the_guard(n, k, log_cond, complex_, seed):
    # condition numbers up to 1 / INVERTIBILITY_TOL, where the guard cuts in
    rng = np.random.default_rng(seed)
    a = _conditioned_stack(n, [10.0**log_cond] * k, rng, complex_)
    b = rng.standard_normal((k, n, 1))
    if complex_:
        b = b + 1j * rng.standard_normal((k, n, 1))
    try:
        x = _solve_refined(a, b)
    except np.linalg.LinAlgError:
        reject()  # past the guard: there is no solution to check
    for ai, bi, xi in zip(a, b, x):
        with mpmath.workdps(50):
            want = mpmath.lu_solve(_mp(ai), _mp(bi))
            scale = float(mpmath.mnorm(want, 1))
            err = float(mpmath.mnorm(_mp(xi) - want, 1))
        # the refinement's fixed point: the rounding of x, plus cond times
        # the Ozaki residual's accuracy (at worst about 2^-77 cond measured)
        assert err <= (2.0**-52 * n + 2.0**-72 * np.linalg.cond(ai)) * scale


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 64), k=st.integers(1, 2), log_cond=st.floats(0.0, 5.0), stacked=st.booleans(),
       complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=64, k=2, log_cond=0.0, stacked=True, complex_=True, seed=2)
@example(n=2, k=1, log_cond=5.0, stacked=False, complex_=False, seed=3)
def test_well_conditioned_solves_are_accurate(n, k, log_cond, stacked, complex_, seed):
    # most of these take one refinement step (n kappa_1 <= SECOND_STEP_NKAPPA),
    # and one step already reaches the fixed point of two
    rng = np.random.default_rng(seed)
    a = _conditioned_stack(n, [10.0**log_cond] * k, rng, complex_)
    b = rng.standard_normal((k, n, 1))
    if complex_:
        b = b + 1j * rng.standard_normal((k, n, 1))
    x = _solve_refined(a, b) if stacked else np.stack([_solve_refined(ai, bi) for ai, bi in zip(a, b)])
    for ai, bi, xi in zip(a, b, x):
        # the error x - a^-1 b is a^-1 of the exact residual, here solved in
        # float64 to a relative kappa u <= 2^-36: an O(n^2) referee where a
        # 50-digit LU of a 64 x 64 system takes seconds
        residual = np.array(_exact_residual(ai, xi, bi).tolist(), dtype=ai.dtype)
        err = np.abs(np.linalg.solve(ai, residual)).sum(axis=0).max()
        scale = np.abs(xi).sum(axis=0).max()
        assert err <= (2.0**-52 * n + 2.0**-72 * np.linalg.cond(ai)) * scale


def test_split_is_exact_on_the_quantum_of_each_row():
    # rows whose largest magnitude is negative (-3), an exact power of two
    # (0.5, where ceil(log2 mu) is one below frexp's exponent), zero, and
    # spread over 38 binades; sigma = 2^(ceil(log2 mu) + beta), and v1 lies
    # on the row's quantum sigma 2^-53 with v2 at most one quantum.  The
    # entry 0.7 2^-24 of the 0.5 row rounds off by 0.8 quanta, and by 1.2 of
    # them at twice that sigma
    v = np.array([
        [-3.0, 0.1, 1.7, -0.2, 2.0**-30],
        [0.5, -0.3, 0.7 * 2.0**-24, 0.1, -0.125],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [1e-3, -7.1e5, 3.3, 2.0**-40, -1.0],
    ])
    inner = 5
    beta = math.ceil((53 + math.log2(inner)) / 2)
    for v1, v2 in (_split(v, -1, inner), (w.T for w in _split(v.T, -2, inner))):
        assert np.array_equal(v1 + v2, v)
        for row, row1, row2, top in zip(v, v1, v2, [2, -1, None, 20]):
            if top is None:
                assert not row1.any() and not row2.any()
                continue
            quantum = Fraction(2) ** (top + beta - 53)
            assert all(Fraction(x) % quantum == 0 for x in row1)
            assert all(abs(Fraction(x)) <= quantum for x in row2)
            assert 2.0 ** (top - 1) < np.abs(row).max() <= 2.0**top


def test_identity_right_hand_side_is_the_inverse_bit_for_bit(monkeypatch):
    # None stands for the identity: the solve starts from the inverse, which
    # inverse @ 1 gives entry for entry.  The middle system has n kappa_1
    # above SECOND_STEP_NKAPPA, so it takes the second step
    steps = []
    residual = correlation._residual

    def counting_residual(a1, a2, x, b):
        steps.append(x.shape[:-2])
        return residual(a1, a2, x, b)

    monkeypatch.setattr(correlation, "_residual", counting_residual)
    a = _conditioned_stack(8, [1e2, 1e9, 10.0], np.random.default_rng(10), False)
    assert (_n_kappa_1(a) > SECOND_STEP_NKAPPA).tolist() == [False, True, False]
    x = _solve_refined(a, None)
    assert steps == [(3,), (1,)]
    assert x.tobytes() == _solve_refined(a, np.eye(8)).tobytes()
    for ai, xi in zip(a, x):
        assert xi.tobytes() == _solve_refined(ai, None).tobytes() == _solve_refined(ai, np.eye(8)).tobytes()


def _exact_screen(a, inverse):
    """(flagged, again) from kappa_1 summed over the complex moduli, the
    screen before its modulus-free bounds."""
    n = a.shape[-1]
    kappa = np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(inverse).sum(axis=-2).max(axis=-1)
    return ~(kappa <= 1.0 / (n * INVERTIBILITY_TOL)), n * kappa > SECOND_STEP_NKAPPA


def test_complex_screen_decides_as_the_exact_moduli(monkeypatch):
    # diagonal systems of planted kappa_1 = max|d| / min|d|, factors of 0.3
    # to 3 from each threshold, with phases 0 and pi/4: the modulus-free
    # bounds are a factor 4 apart, so some systems are settled by them and
    # some straddle a threshold and take the exact moduli.  Each is also
    # rotated by unitaries, which keeps kappa_2.  flagged, again and x must
    # equal those of the exact-moduli screen bit for bit, on a stack and one
    # system at a time
    n, rng = 4, np.random.default_rng(12)
    thresholds = [1.0 / (n * INVERTIBILITY_TOL), SECOND_STEP_NKAPPA / n]
    kappas = [t * f for t in thresholds for f in (0.3, 0.6, 0.9, 0.99, 1.01, 1.1, 1.9, 3.0)] + [1.0, 10.0]
    systems = []
    for kappa in kappas:
        for phase in (0.0, np.pi / 4):
            d = np.exp(1j * phase) * np.geomspace(1.0, 1.0 / kappa, n)
            systems.append(np.diag(d))
            systems.append(_unitary(n, rng, True) @ np.diag(d) @ _unitary(n, rng, True).conj().T)
    a = np.stack(systems)
    inverse = np.linalg.inv(a)
    want = _exact_screen(a, inverse)
    for got, expected in zip(correlation._screen(a, inverse), want):
        assert got.tolist() == expected.tolist()
    assert all(0 < v.sum() < len(a) for v in want)  # both sides of both thresholds
    b = rng.standard_normal((len(a), n, 2)) + 1j * rng.standard_normal((len(a), n, 2))
    x = _solve_refined(a, b)
    singles = [_solve_refined(ai, bi) for ai, bi in zip(a, b)]
    monkeypatch.setattr(correlation, "_screen", _exact_screen)
    assert x.tobytes() == _solve_refined(a, b).tobytes()
    for ai, bi, xi in zip(a, b, singles):
        assert xi.tobytes() == _solve_refined(ai, bi).tobytes()


def _two_step_solve(a, b):
    """The refined solve with two steps for every system, as before the step
    rule."""
    inverse = np.linalg.inv(a)
    a1, a2 = _row_split(a)
    x = inverse @ b
    for _ in range(2):
        x = x + inverse @ _residual(a1, a2, x, b)
    return x


def _n_kappa_1(a):
    n = a.shape[-1]
    return n * np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(np.linalg.inv(a)).sum(axis=-2).max(axis=-1)


@pytest.mark.parametrize("complex_", [False, True])
def test_second_step_is_taken_per_system(complex_, monkeypatch):
    # one system below the threshold and one above, stacked both ways: each
    # row is its solo solve, and the row above is the two-step solve
    steps = []
    residual = correlation._residual

    def counting_residual(a1, a2, x, b):
        steps.append(x.shape[:-2])
        return residual(a1, a2, x, b)

    monkeypatch.setattr(correlation, "_residual", counting_residual)
    rng = np.random.default_rng(8)
    a = _conditioned_stack(8, [1e2, 1e9], rng, complex_)
    below, above = _n_kappa_1(a)
    assert below < SECOND_STEP_NKAPPA < above
    b = rng.standard_normal((2, 8, 3)) + (1j * rng.standard_normal((2, 8, 3)) if complex_ else 0.0)
    for order in ([0, 1], [1, 0]):
        x = _solve_refined(a[order], b[order])
        for row, i in zip(x, order):
            assert np.array_equal(row, _solve_refined(a[i], b[i]))
    steps.clear()
    x = _solve_refined(a, b)
    assert steps == [(2,), (1,)]  # both systems, then only the one above
    assert np.array_equal(x[1], _two_step_solve(a[1], b[1]))


def _near_unit(ell, rng):
    """Pair values with 1 - g from 1e-10 to 1e-4, all in the regular branch
    (UNIT_MODE_TOL = 1e-13)."""
    return 1.0 - 10.0 ** rng.uniform(-9.99, -4.0, ell)


def _near_unit_errors(rng):
    """|F - F_exact| of near-unit regular pairs: against the 40-digit oracle
    at ell = 2 and 3, the second state's basis a small rotation of the
    first's, and against the factorized fidelity of commuting pairs up to
    ell = 28, half their modes pulled a little away from 1 in the second."""
    m, want = [], []
    for ell in (2, 3):
        for _ in range(8):
            rotation = rand_rotation(2 * ell, rng)
            k = rng.standard_normal((2 * ell, 2 * ell))
            turn = scipy.linalg.expm(10.0 ** rng.uniform(-5, -1) * (k - k.T))
            pair = [planted_state(_near_unit(ell, rng), rotation=r).m for r in (rotation, rotation @ turn)]
            m.append(np.stack(pair))
            want.append(float(mp_oracle.fidelity(*pair)))
    for ell in (4, 16, 28):
        for _ in range(8):
            g1, g2 = _near_unit(ell, rng), _near_unit(ell, rng)
            moved = rng.random(ell) < 0.5
            g2[moved] = np.minimum(g1[moved], 1.0 - 1e-6) * rng.uniform(0.9, 1.0, moved.sum())
            m.append(stack(commuting_pair(g1, g2, rng)))
            want.append(factorized_fidelity(g1, g2))
    got = [pair_fidelities(pair, [(0, 1)])[0] for pair in m]
    return np.abs(np.array(got) - want)


def test_one_step_is_as_accurate_at_the_near_unit_edge(monkeypatch):
    # the same pairs with every system refined twice, the rule before
    # SECOND_STEP_NKAPPA: the worst error may not grow.  Over 120 such pairs
    # at ell = 2 and 3 and 200 up to ell = 28, one step and two had the same
    # worst errors, 2.7e-8 and 5.2e-8: the floor of aligned near-unit modes
    one_step = _near_unit_errors(np.random.default_rng(9))
    monkeypatch.setattr(correlation, "SECOND_STEP_NKAPPA", 0)
    two_steps = _near_unit_errors(np.random.default_rng(9))
    assert one_step.max() <= two_steps.max() + 1e-13
    assert one_step.max() < 1e-7
