"""Ozaki-split residuals and the refined solve, against exact arithmetic."""

from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fgdist.correlation import _residual, _solve_refined, _split

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
    got = _residual(a, x, b)
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
    ozaki = _relative_error(_residual(a, x, b), r_exact)
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
