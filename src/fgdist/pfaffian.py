"""Principal Pfaffians of stacks of antisymmetric matrices.

The Wick expansion of a Gaussian state needs the Pfaffian of every even
principal submatrix m_S of its correlation matrix.  A subset S of the n
rows is a bit mask; the table of all 2^n masks is filled level by level,
each level from the one below by the expansion along the lowest index s_0
of S = {s_0 < s_1 < ... < s_{2k-1}}:

    Pf(m_S) = sum_{j=1}^{2k-1} (-1)^(j+1) m[s_0, s_j] Pf(m_{S - s_0 - s_j}),

with Pf of the empty matrix 1.  That is O(n 2^n) multiply-adds per matrix,
against O(n^3 2^n) for a separate factorization of every submatrix.

The table only adds, subtracts and multiplies elements, in an order fixed
by the mask alone, so it is generic over the element type: a float64 stack
and an object array of ``mpmath.mpf`` run the same code, and one matrix
gets the same bits whether it is computed alone or inside a stack.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["principal_pfaffians"]

# the level plan of n <= 2 * PLAN_CACHE_MODES rows is cached (4 MiB at n = 16);
# larger plans hold O(n 2^n) indices and are regenerated level by level
PLAN_CACHE_MODES = 8

_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int8)


def popcount(masks: np.ndarray) -> np.ndarray:
    """Set bits of each non-negative integer mask below 2^31."""
    masks = np.asarray(masks)
    count = np.zeros(masks.shape, dtype=np.int8)
    for shift in range(0, 32, 8):
        count += _BYTE_POPCOUNT[(masks >> shift) & 255]
    return count


def _levels(n: int):
    """Per even subset size 2k: the masks of that size and a generator of
    the 2k - 1 expansion terms, each (flat index s_0 * n + s_j of the entry
    m[s_0, s_j], mask of S - s_0 - s_j) for every mask, in mask order."""
    sizes = popcount(np.arange(2**n, dtype=np.int32))
    for size in range(2, n + 1, 2):
        masks = np.flatnonzero(sizes == size)
        yield masks, _terms(masks, n, size)


def _terms(masks: np.ndarray, n: int, size: int):
    lead = masks & -masks
    row = popcount(lead - 1).astype(np.int64) * n
    rest = masks ^ lead
    for _ in range(size - 1):
        low = rest & -rest
        rest = rest ^ low
        yield row + popcount(low - 1), masks ^ lead ^ low


@lru_cache(maxsize=PLAN_CACHE_MODES)
def _cached_levels(n: int) -> tuple:
    return tuple((masks, tuple(terms)) for masks, terms in _levels(n))


def principal_pfaffians(m) -> np.ndarray:
    """Pfaffians of every principal submatrix of each matrix of a stack.

    ``m`` has shape (..., n, n) with n even and antisymmetric trailing
    matrices, of any element type that supports +, - and *.  Returns shape
    (..., 2^n) and m's dtype: entry ``mask`` holds Pf(m_S) of the rows and
    columns S whose bits are set in ``mask``, 1 for the empty mask and 0 for
    every odd one.
    """
    m = np.asarray(m)
    n = m.shape[-1]
    if m.ndim < 2 or m.shape[-2] != n or n % 2:
        raise ValueError(f"need a stack of even square matrices, got shape {m.shape}")
    entries = m.reshape(*m.shape[:-2], n * n)
    table = np.zeros((*m.shape[:-2], 2**n), dtype=m.dtype)
    table[..., 0] = 1
    levels = _cached_levels(n) if n <= 2 * PLAN_CACHE_MODES else _levels(n)
    for masks, terms in levels:
        total = None
        for j, (entry, rest) in enumerate(terms):
            term = entries[..., entry] * table[..., rest]
            if total is None:
                total = term
            elif j % 2:
                total -= term
            else:
                total += term
        table[..., masks] = total
    return table
