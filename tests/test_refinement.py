"""Ozaki-split residuals and the refined solve, against exact arithmetic."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import planted_state
from fgdist.correlation import INVERTIBILITY_TOL, _compose_complex, _residual, _row_split, _solve_refined, _split

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


@settings(max_examples=15, deadline=None)
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


@settings(max_examples=10, deadline=None)
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


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 12), log_cond=st.floats(2.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_residual_is_no_worse_than_long_double(n, log_cond, seed):
    # the unrefined solution's residual, the one the first refinement step
    # needs; where np.longdouble is float64 the comparison only gets easier
    rng = np.random.default_rng(seed)
    a = _conditioned(n, 10.0**log_cond, rng)
    b = rng.standard_normal((n, 2))
    x = np.linalg.solve(a, b)
    r_exact = _exact_residual(a, x, b)
    ozaki = _relative_error(_residual(*_row_split(a), x, b), r_exact)
    assert ozaki <= _relative_error(_long_double_residual(a, x, b), r_exact)
    assert ozaki < 1e-5


@settings(max_examples=20, deadline=None)
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


@settings(max_examples=40, deadline=None)
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


@settings(max_examples=20, deadline=None)
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
