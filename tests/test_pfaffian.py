"""Principal Pfaffian table: closed forms, Pf^2 = det, and the mpmath run."""

import itertools

import mpmath
import numpy as np
import pytest

from fgdist.pfaffian import popcount, principal_pfaffians


def random_antisymmetric(n: int, rng, count: int | None = None) -> np.ndarray:
    a = rng.standard_normal((n, n) if count is None else (count, n, n))
    return a - a.swapaxes(-1, -2)


def test_popcount_matches_bin():
    masks = np.arange(2**12)
    assert popcount(masks).tolist() == [bin(k).count("1") for k in range(2**12)]


def test_small_closed_forms():
    m = random_antisymmetric(4, np.random.default_rng(0))
    table = principal_pfaffians(m)
    assert table.shape == (16,)
    assert table[0] == 1.0
    for a, b in itertools.combinations(range(4), 2):
        assert table[1 << a | 1 << b] == m[a, b]
    full = m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
    assert abs(table[15] - full) < 1e-14
    odd = [mask for mask in range(16) if bin(mask).count("1") % 2]
    assert not table[odd].any()


@pytest.mark.parametrize("n", [2, 6, 10])
def test_squares_are_principal_determinants(n):
    m = random_antisymmetric(n, np.random.default_rng(n))
    table = principal_pfaffians(m)
    for mask in range(2**n):
        rows = [a for a in range(n) if mask >> a & 1]
        if len(rows) % 2 == 0:
            det = np.linalg.det(m[np.ix_(rows, rows)]) if rows else 1.0
            assert abs(table[mask] ** 2 - det) < 1e-12 * max(1.0, abs(det))


def test_congruence_scales_by_determinant():
    # Pf(B A B^T) = det(B) Pf(A) fixes the sign that Pf^2 = det leaves open
    rng = np.random.default_rng(3)
    a = random_antisymmetric(8, rng)
    b = rng.standard_normal((8, 8))
    got = principal_pfaffians(b @ a @ b.T)[-1]
    assert abs(got - np.linalg.det(b) * principal_pfaffians(a)[-1]) < 1e-10 * abs(got)


def test_stacks_give_each_matrix_its_own_bits():
    stack = random_antisymmetric(8, np.random.default_rng(4), count=5)
    whole = principal_pfaffians(stack)
    assert whole.shape == (5, 2**8)
    for k in range(5):
        assert np.array_equal(principal_pfaffians(stack[k]), whole[k])
    assert np.array_equal(principal_pfaffians(stack[1:3]), whole[1:3])


def test_mpmath_elements_run_the_same_table():
    # one code path serves float64 and a 40-digit oracle
    rng = np.random.default_rng(5)
    m = random_antisymmetric(8, rng, count=2) / 2.0
    with mpmath.workdps(40):
        exact = principal_pfaffians(np.vectorize(mpmath.mpf, otypes=[object])(m))
        assert exact.dtype == object
        assert isinstance(exact[0, 2**8 - 1], mpmath.mpf)
        want = np.array(exact.tolist(), dtype=float)
    assert np.abs(principal_pfaffians(m) - want).max() < 1e-14


def test_rejects_odd_and_non_square_input():
    for shape in [(3, 3), (4, 2), (4,)]:
        with pytest.raises(ValueError):
            principal_pfaffians(np.zeros(shape))
