"""Correlation-matrix algebra for fermionic Gaussian states.

A Gaussian state of ``ell`` fermionic modes is represented by the real
antisymmetric matrix ``m`` of shape ``(2*ell, 2*ell)`` built from Majorana
two-point functions,

    Gamma_{ab} = tr(rho d_a d_b) - delta_{ab},      Gamma = i m,

with the interleaved Majorana ordering d_1, d_2 = (x-type, y-type) of mode 1,
then mode 2, and so on.  Gamma is Hermitian with spectrum {+g_j, -g_j}; the
pair values g_j lie in [0, 1].  A state is pure exactly when every pair value
equals 1.  One ``eigh`` of Gamma is a state's only decomposition: its ell
smallest eigenvalues give the pair values, and its eigenvectors the half
state and the canonical rotation.  :class:`CorrelationMatrix` caches the
eigensystem and what it reads of it (pair values, unit count, half state
and rotation), and checks its matrix as the pair kernel checks its stacks
(:func:`_state_stack`): finite and antisymmetric to ANTISYMMETRY_TOL.  Both
then work on the input made exactly antisymmetric, so they read the same
matrix.

Every quantity here stays in real arithmetic where the algebra allows it:
products Gamma_1 Gamma_2 = -m_1 m_2 are real, so overlap traces, the pure
fidelity and the unit-mode reduction never touch complex matrices.  Only the
general mixed-state fidelity leaves real arithmetic: it diagonalizes the
Hermitian Gamma of one state and composes complex correlation matrices, for
the sandwich sqrt(rho_1) rho_2 sqrt(rho_1).

The fidelity of two states is computed by branch dispatch:

* one mode: closed form in the two signed pair values;
* no pair value of either state within UNIT_MODE_TOL of 1: the composition
  sandwich of :func:`_regular_fidelities`;
* every pair value of one state within UNIT_MODE_TOL of 1: quartic-root
  overlap determinant, clamped to 1;
* otherwise: rotate into the canonical basis of the state with more
  near-unit pairs, split off those modes exactly, and recurse on a strictly
  smaller problem.

Unit modes must be split off first because the overlap determinant and the
composition solve (1 + Gamma_2 Gamma_1)^{-1} turn singular when an occupied
mode meets an empty one.  The compose and reduction solves
(:func:`_solve_refined`) take one inverse of their matrix and refine its
solution on residuals from Ozaki-split float64 products, with no
extended-precision type: once, and a second time only on a system with n
kappa_1 above SECOND_STEP_NKAPPA.  Their invertibility guard screens with
kappa_1 from the same inverse, bounded first from the float parts of a
complex system, and takes an SVD only of a system the screen flags.

One dispatch decides a pair's branch and order, and the reduction recurses
into it on the smaller pair.  It returns the fidelity, or the regular
sandwich the pair comes down to: the regular pair, the more mixed state
first, and the unit-block prefactors of the reductions on the way.
:func:`fidelity` evaluates that sandwich on its own.
:func:`pair_fidelities` takes the states as one (n, 2 ell, 2 ell) stack of
m and walks its pairs in kernel stacks: it decomposes each state, in one
stacked ``eigh``, when the first stack that needs it comes up, and hands
every pair with unit pairs to the same dispatch, on states that carry that
eigensystem.  Every regular-formula evaluation, a stack's regular pairs
and the regular bulk pairs of its reduce pairs, joins a queue per matrix
size, which runs across kernel stacks in stacks of SANDWICH_PAIRS pairs, or
of a kernel stack's worth at small ell.  So both paths read a pair's
branch, order and value expression from the same code.  A regular pair
needs no rotation: the half state of its more mixed state comes from
the eigensystem of Gamma = i m, so degenerate pair values need no care.
Only the reduce branch rotates a state into its canonical basis: its
``rotation``, one QR on top of the same eigensystem from
:func:`canonical_form`, is cached on the state like the eigensystem, and
so is its ``reduction``: the snapped block matrix and the bulk state, with
its eigensystem and half state, that every reduce pair of that reference
state reads.  The other bulk state, new for every pair, is decomposed only
as far as the dispatch reads it: one ``eigvalsh`` gives its pair values,
and its ``eigh`` runs only if it turns out the more mixed, or if its top
pair value lies within DECISION_MARGIN of a value it is compared against.

Bures distances take one more path.  sqrt(2 (1 - F)) cancels for close
pairs, where one ulp of F is a distance of 1.5e-8, so
:func:`bures_distances` gives a regular-branch pair (ell > 1, no pair value
of either state within UNIT_MODE_TOL of 1) whose second-order metric
distance lies below SMALL_DISTANCE sqrt(2 (1 - g_max)) that distance
instead, computed from m_2 - m_1 in the eigenbasis of the more mixed
state's Gamma (:func:`_metric_distances`), and a single-mode pair the
closed form of :func:`_single_mode_distance`, which does not cancel.  The
metric distance is at least ||m_2 - m_1||_F / 4, so it is computed only for
pairs where that bound lies below twice the switch.  The fidelity functions
never take either path: a fidelity within 1e-16 of 1 cannot be stored.
"""

from __future__ import annotations

import logging
import math
from functools import cached_property

import numpy as np

__all__ = [
    "CorrelationMatrix",
    "canonical_form",
    "gaussian_product_trace",
    "gaussian_compose",
    "fidelity",
    "pair_fidelities",
    "fidelity_single_mode",
    "reduce_unit_modes",
    "bures_distance",
    "bures_distances",
]

logger = logging.getLogger(__name__)

# Tolerances.  ANTISYMMETRY_TOL guards every input; EIGENVALUE_SLACK is how
# far above 1 a pair value may land before the input is rejected rather than
# snapped; UNIT_MODE_TOL decides when a mode counts as exactly occupied or
# empty for branch dispatch.  It sits where the errors of the regular branch
# and of the reduction, which snaps the mode to 1, cross against the 40-digit
# oracle, and 10x above the 1 - g that exactly unit pairs round to (at most
# 6e-15 on the Ising tables up to L = 14 and the random L = 64/128 ensembles).
ANTISYMMETRY_TOL = 1e-12
EIGENVALUE_SLACK = 1e-9
UNIT_MODE_TOL = 1e-13
INVERTIBILITY_TOL = 1e-12

# A composed Gamma's antisymmetry deviation, and the sandwich state's
# imaginary residue, are logged above this fraction of the matrix's largest
# entry, or of 1 if that is larger.  Composition amplifies the float64
# rounding of its inputs by about ||(1 + Gamma_2 Gamma_1)^{-1}||^2, up to 5e12
# in the real solve of a regular pair, where the half state keeps that norm
# below 2.3e6.  Over 7,495 random regular pairs at ell = 2 to 6 with every
# 1 - g in [1e-10, 1e-7], the largest deviation was 6.7e-7 of the largest
# entry: rounding, not a fault.  With one pair value per state in
# (1e-13, 1e-10] and the rest below 0.9 it was 2.4e-14.  With every pair
# value in that band it passes this fraction on about 1% of pairs, up to
# 6.6e-4, while F stays within 1.1e-8 of the 40-digit oracle at ell = 2 and
# 3.  The L = 14 Ising Bures sweeps at h = 0.9 and 1 (ell = 2 to 13), with 30
# pair values in the band each, log none.
ROUNDING_RESIDUE_TOL = 1e-4

# The bulk state_s of a reduce pair takes its pair values from an eigvalsh,
# not its eigh, when its top pair value lies further than this from 1 -
# UNIT_MODE_TOL and from the bulk reference's top pair value: then the two
# decide its branch and order alike.  Both are backward stable, so they
# differ by a few ulp of ||Gamma|| <= 1: by at most 2.6e-15 over 3,330
# reduce pairs of the Ising L = 10 and 12 tables at ell > L/2 and of random
# L = 64 ensembles at ell = 40 and 56.
DECISION_MARGIN = 1e-12

# A refined solve takes its second step only on a system with n kappa_1 above
# this; see _solve_refined.
SECOND_STEP_NKAPPA = 2**20

# Bures distances of close regular pairs come from the second-order metric
# below this multiple of sqrt(2 (1 - g_max)); see bures_distances.
SMALL_DISTANCE = 1e-5

# The pair kernel takes its pairs in stacks of at most this many matrix
# elements, pairs x (2 ell)^2, so temporaries stay small at large ell.
STACK_ELEMENTS = 4096

# The pair kernel runs the regular formula in stacks of this many pairs
# within this many times STACK_ELEMENTS, or of a kernel stack's worth where
# that is more; see _Sandwiches.  At n = 48 stacks of 3 and 4 pairs were
# the fastest and 16 or more fall out of cache; each pair holds about 0.46
# MiB of temporaries there.
SANDWICH_PAIRS = 3


class CorrelationMatrix:
    """Majorana correlation matrix of a fermionic Gaussian state.

    Everything derived from ``m`` is cached on first use: the eigensystem,
    the pair values (read-only) and unit count read from its eigenvalues,
    the half state and the canonical rotation from its eigenvectors, and
    the reduction of a reduce-branch reference.  ``m`` must not change
    after that.

    Parameters
    ----------
    m : array_like
        Real antisymmetric matrix of shape (2*ell, 2*ell) with Gamma = i*m.
    validate : bool
        Check shape, finite entries and antisymmetry on construction, as
        the pair kernel checks its stacks (cheap), and keep a copy of ``m``
        made exactly antisymmetric, as the pair kernel reads it; the pair
        value range check runs lazily on first use.
    """

    def __init__(self, m, *, validate: bool = True):
        m = np.asarray(m, dtype=float)
        if validate:
            m = _state_stack(m.copy(), ndim=2)
        self.m = m
        self.ell = m.shape[0] // 2

    @cached_property
    def eigensystem(self):
        """Eigenvalues (ascending) and eigenvectors of Gamma = i m, from the
        state's one ``eigh``."""
        return _eigensystems(self.m)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues (ascending) of Gamma = i m, which give the pair
        values: those of the eigensystem, unless set before from an
        ``eigvalsh`` of Gamma, as :func:`reduce_unit_modes` does for its
        bulk state."""
        return self.eigensystem[0]

    @cached_property
    def half(self) -> np.ndarray:
        """m of sqrt(rho)/tr sqrt(rho), from the eigensystem (read-only); the
        regular formula composes it when this state is the more mixed of a
        pair."""
        lam, u = self.eigensystem
        half = _half_matrices(lam[None], u[None])[0]
        half.flags.writeable = False
        return half

    @cached_property
    def rotation(self) -> np.ndarray:
        """Orthogonal O of the canonical form O m O^T, from
        :func:`canonical_form`; the reduce branch rotates into this basis."""
        return canonical_form(self)

    @cached_property
    def reduction(self):
        """What the reduce branch reads of this state as its reference, for
        every pair it joins: its unit pair count x, its canonical block
        matrix with the x unit pairs snapped to exactly 1 (read-only), and
        the state of its other pairs, which caches its own eigensystem."""
        x = self.unit_pair_count()
        r_rot = _block_matrix(np.concatenate([np.ones(x), self.pair_values[x:]]))
        r_rot.flags.writeable = False
        return x, r_rot, CorrelationMatrix(r_rot[2 * x :, 2 * x :], validate=False)

    @cached_property
    def pair_values(self) -> np.ndarray:
        """Canonical pair values g_j, descending, clipped into [0, 1], from
        ``eigenvalues`` (read-only); raises ValueError for one beyond
        EIGENVALUE_SLACK above 1."""
        values = _pair_values_of(self.eigenvalues)
        values.flags.writeable = False
        return values

    @cached_property
    def _unit_pairs(self) -> int:
        return int(np.sum(self.pair_values >= 1.0 - UNIT_MODE_TOL))

    def unit_pair_count(self) -> int:
        """How many pair values count as exactly 1 for branch dispatch."""
        return self._unit_pairs

    def is_pure(self) -> bool:
        return self.unit_pair_count() == self.ell

    def restrict(self, ell_keep: int) -> "CorrelationMatrix":
        """Correlation matrix of the leading ``ell_keep`` modes."""
        if not 1 <= ell_keep <= self.ell:
            raise ValueError(f"cannot keep {ell_keep} of {self.ell} modes")
        return CorrelationMatrix(self.m[: 2 * ell_keep, : 2 * ell_keep], validate=False)

    def __repr__(self):
        return f"CorrelationMatrix(ell={self.ell})"


def _eigensystems(ms: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of Gamma = i m for one state
    or a stack, the same bits per state either way: the pair values are the
    eigenvalues +-g_j."""
    return np.linalg.eigh(1j * ms)


def _pair_values_of(lam: np.ndarray) -> np.ndarray:
    """Pair values, descending, from the ascending eigenvalues of Gamma of
    one state or a stack: minus the smallest half, clipped into [0, 1].
    Raises when one exceeds 1 beyond EIGENVALUE_SLACK."""
    top = -lam[..., 0].min(initial=0.0)
    if top > 1.0 + EIGENVALUE_SLACK:
        raise ValueError(f"pair value {top:.15g} exceeds 1 beyond slack {EIGENVALUE_SLACK}")
    return np.clip(-lam[..., : lam.shape[-1] // 2], 0.0, 1.0)


def _state_stack(m, ndim: int = 3) -> np.ndarray:
    """``m`` as a float stack (n, 2 ell, 2 ell) of correlation matrices, or
    with ``ndim`` = 2 as one matrix, made exactly antisymmetric; raises
    ValueError on any other shape, reporting the shape it was given, on
    non-finite entries and on a deviation from antisymmetry above
    ANTISYMMETRY_TOL.  The entries are checked in chunks of STACK_ELEMENTS
    matrix elements, so no temporary grows with the stack.  A chunk that
    deviates at all is replaced by (m - m^T) / 2 in a copy of the stack,
    made at the first such chunk; an exactly antisymmetric stack, as every
    sweep's is, is returned uncopied.  So the pair kernel and
    :class:`CorrelationMatrix` read the same matrix from the same input."""
    m = np.asarray(m, dtype=float)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2] or m.shape[-1] % 2 or not m.shape[-1]:
        what = "stack of 2 ell x 2 ell correlation matrices" if ndim == 3 else "2 ell x 2 ell correlation matrix"
        raise ValueError(f"need a {what}, got shape {m.shape}")
    stack = out = m.reshape(-1, *m.shape[-2:])
    per_chunk = max(1, STACK_ELEMENTS // m.shape[-1] ** 2)
    for start in range(0, len(stack), per_chunk):
        chunk = stack[start : start + per_chunk]
        # before the antisymmetry test: NaN passes it and inf makes it warn
        if not np.isfinite(chunk).all():
            raise ValueError("correlation matrices have non-finite entries")
        dev = np.abs(chunk + np.swapaxes(chunk, 1, 2)).max()
        if dev > ANTISYMMETRY_TOL:
            raise ValueError(f"correlation matrix is not antisymmetric (deviation {dev:.3e})")
        if dev:
            out = stack.copy() if out is stack else out
            out[start : start + per_chunk] = (chunk - np.swapaxes(chunk, 1, 2)) / 2.0
    return out.reshape(m.shape)


def _index_pairs(pairs, n: int) -> np.ndarray:
    """``pairs`` as a (k, 2) int64 array, k = 0 included; raises ValueError
    unless it has that shape or is an empty list, and every index is an
    integer (not a bool) that addresses one of the n states, 0..n-1."""
    # as objects, so that a bool among ints is seen before it is cast to 1,
    # and an index beyond int64 is compared before it is cast
    objects = np.asarray(pairs, dtype=object)
    if objects.shape != (0,) and (objects.ndim != 2 or objects.shape[1] != 2):
        raise ValueError(f"pairs must have shape (k, 2), got {objects.shape}")
    if not all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in set(map(type, objects.flat))):
        raise ValueError("pair indices must be integers")
    if objects.size and not (0 <= objects.min() and objects.max() < n):
        raise ValueError(f"pair indices must lie in 0..{n - 1}")
    return objects.astype(np.int64).reshape(-1, 2)


def _block_matrix(values: np.ndarray) -> np.ndarray:
    """Direct sum of [[0, g_j], [-g_j, 0]] over the values g_j."""
    n = len(values)
    b = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    b[2 * idx, 2 * idx + 1] = values
    b[2 * idx + 1, 2 * idx] = -values
    return b


def canonical_form(state: CorrelationMatrix) -> np.ndarray:
    """Rotation of a state's m to its 2x2 block canonical form.

    Returns the orthogonal O with O m O^T = blkdiag([[0, g_j], [-g_j, 0]])
    over the pair values g_j = ``state.pair_values`` (descending), from the
    state's one ``eigh`` of Gamma = i m; ``state.rotation`` caches it.  Rows
    2j-1, 2j of O are sqrt(2) (Re u, Im u) for the eigenvector u of -g_j,
    one of the ell smallest eigenvalues.  For g_j > 0, u is orthogonal to
    its conjugate, an eigenvector of +g_j, so these rows are orthonormal,
    and degenerate pair values need no care.  For g_j = 0 they need not be:
    one QR of the rows, with the signs of R's diagonal made non-negative,
    keeps the other rows to rounding and completes those of the zero pair
    values to an orthonormal basis of the null space of m.  Raises
    ValueError, as ``state.pair_values`` does, for a pair value beyond
    EIGENVALUE_SLACK above 1.
    """
    state.pair_values  # raises beyond EIGENVALUE_SLACK
    q, r = np.linalg.qr(np.sqrt(2.0) * np.ascontiguousarray(state.eigensystem[1][:, : state.ell]).view(float))
    return (q * np.where(np.diag(r) < 0.0, -1.0, 1.0)).T


def _warn_residues(deviation: np.ndarray, matrices: np.ndarray, what: str):
    """Log each matrix of the stack whose residue, the largest modulus of
    its ``deviation``, exceeds ROUNDING_RESIDUE_TOL times the largest entry
    of the matrix, or times 1 if that is larger: the composition adds terms
    of order 1 even where its result is near 0.

    The scale is at least 1, so no residue at or below ROUNDING_RESIDUE_TOL
    can be logged, and |z| <= sqrt(2) max(|Re z|, |Im z|).  So the moduli of
    a complex ``deviation`` are taken only when one of its real or imaginary
    parts exceeds half of ROUNDING_RESIDUE_TOL, and the scale only when a
    residue exceeds ROUNDING_RESIDUE_TOL: where neither is taken, nothing
    could be logged."""
    parts = np.ascontiguousarray(deviation).view(float) if np.iscomplexobj(deviation) else deviation
    if not np.abs(parts).max() > ROUNDING_RESIDUE_TOL / 2:
        return
    residue = np.abs(deviation).max(axis=(-2, -1))
    if not np.any(residue > ROUNDING_RESIDUE_TOL):
        return
    scale = np.maximum(np.abs(matrices).max(axis=(-2, -1)), 1.0)
    for r, t in zip(*np.atleast_1d(residue, scale)):
        if r > ROUNDING_RESIDUE_TOL * t:
            logger.warning("%s %.3e at scale %.3e", what, r, t)


def _antisymmetrize(gamma: np.ndarray) -> np.ndarray:
    """(gamma - gamma^T) / 2 over the last two axes, warning per matrix
    whose antisymmetry deviation exceeds ROUNDING_RESIDUE_TOL times its
    largest entry, or times 1 if that is larger."""
    flipped = np.swapaxes(gamma, -1, -2)
    _warn_residues(gamma + flipped, gamma, "composite correlation antisymmetry deviation")
    antisymmetric = gamma - flipped
    antisymmetric /= 2.0
    return antisymmetric


def _split(v: np.ndarray, axis: int, inner: int):
    """Ozaki split v = v1 + v2 along ``axis``: each row (axis -1) or column
    (axis -2) is rounded at sigma = 2^(ceil(log2 mu) + ceil((53 + log2 n) / 2)),
    mu its largest magnitude and n the inner dimension of the product, so the
    leading parts hold at most 53 - ceil((53 + log2 n) / 2) bits below the
    top bit of their row or column.  mu is one exact reduction of |v|.  v1
    is a multiple of the quantum sigma 2^-53 and v2 = v - v1 is exact, so
    v1 + v2 == v."""
    mu = np.abs(v).max(axis=axis, keepdims=True)
    frac, exp = np.frexp(mu)
    exp -= frac == 0.5  # exactly a power of two: ceil(log2 mu) is one lower
    sigma = np.ldexp(1.0, exp + math.ceil((53 + math.log2(inner)) / 2))
    v1 = v + sigma
    v1 -= sigma
    return v1, v - v1


def _row_split(a: np.ndarray):
    """Row split (a1, a2) of a (single or stacked) for :func:`_residual`: of
    a itself when it is real, of its real embedding [[Re a, -Im a], [Im a,
    Re a]] when it is complex."""
    if np.iscomplexobj(a):
        n = a.shape[-1]
        embedded = np.empty((*a.shape[:-2], 2 * n, 2 * n))
        embedded[..., :n, :n] = embedded[..., n:, n:] = a.real
        np.negative(a.imag, out=embedded[..., :n, n:])
        embedded[..., n:, :n] = a.imag
        a = embedded
    return _split(a, -1, a.shape[-1])


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im, written into one complex array: re + 1j * im would take
    two complex passes over the same values."""
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _residual(a1: np.ndarray, a2: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - a x of (stacked) matrices from four float64 products, with a
    given by its row split a1 + a2 from :func:`_row_split`.

    With a split by rows and x by columns as in :func:`_split`, every term of
    a1 @ x1 is a multiple of one quantum per output entry and the n-term sums
    stay below 2^53 quanta, so a1 @ x1 is exact whatever order BLAS adds in
    (barring underflow).  The three small products carry the rest: a2 and x2
    are at most 2^(beta - 53) of their row's or column's largest entry, beta =
    ceil((53 + log2 n) / 2), so their float64 rounding costs about
    2^(beta - 106) |a| |x| (2^-76 at n = 64) against 2^-53 for a plain float64
    product (Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59, 95 (2012)).
    A complex system (complex x) goes through the real embedding of a, of
    inner size 2n, with [Re x; Im x] and [Re b; Im b].
    """
    n = x.shape[-2]
    embed = np.iscomplexobj(x)
    if embed:
        x = np.concatenate([x.real, x.imag], axis=-2)
    x1, x2 = _split(x, -2, a1.shape[-1])
    del x  # the embedded copy is not needed past the split
    # (b - a1 x1) - ((a1 x2 + a2 x1) + a2 x2), accumulated in place through
    # one product buffer, with b subtracted part by part when embedded
    t = a1 @ x2
    p = np.matmul(a2, x1)
    t += p
    t += np.matmul(a2, x2, out=p)
    r = np.matmul(a1, x1, out=p)
    del x1, x2
    if embed:
        np.subtract(b.real, r[..., :n, :], out=r[..., :n, :])
        np.subtract(b.imag, r[..., n:, :], out=r[..., n:, :])
    else:
        np.subtract(b, r, out=r)
    r -= t
    del t
    return _complex(r[..., :n, :], r[..., n:, :]) if embed else r


def _screen(a: np.ndarray, inverse: np.ndarray):
    """(flagged, again) per system of :func:`_solve_refined`: whether 1 /
    kappa_1 lies below n INVERTIBILITY_TOL (NaN is flagged too), and whether
    n kappa_1 lies above SECOND_STEP_NKAPPA, with kappa_1 = ||a||_1
    ||a^{-1}||_1 summed from the moduli of the entries.

    A complex system is first bounded with no modulus, from the largest
    column sum M of the absolute float parts, taken as one product with a
    row of ones, which is faster than the reduction: M <= ||a||_1 <= 2 M,
    since max(|Re z|, |Im z|) <= |z| <= |Re z| + |Im z|.  The bounds on
    kappa_1 are widened by 2^-40, far beyond the rounding of these sums in
    any order.  Where both are finite and decide both tests alike, kappa_1
    decides them so too, and only the other systems take their moduli."""
    n = a.shape[-1]

    def decide(kappa):
        return ~(kappa <= 1.0 / (n * INVERTIBILITY_TOL)), n * kappa > SECOND_STEP_NKAPPA

    def exact(a, inverse):
        return decide(np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(inverse).sum(axis=-2).max(axis=-1))

    if not np.iscomplexobj(a):
        return exact(a, inverse)
    shape = a.shape[:-2]
    a, inverse = (v.reshape(-1, n, n) for v in (a, inverse))  # a stack, so that systems can be picked
    ones = np.ones(n)
    bound = (ones @ np.abs(np.ascontiguousarray(a).view(float))).max(axis=-1)
    bound *= (ones @ np.abs(np.ascontiguousarray(inverse).view(float))).max(axis=-1)
    flagged, again = decide(bound * (1.0 - 2.0**-40))
    flagged_above, again_above = decide(bound * (4.0 * (1.0 + 2.0**-40)))
    unsettled = ~np.isfinite(bound) | (flagged != flagged_above) | (again != again_above)
    if unsettled.any():
        flagged[unsettled], again[unsettled] = exact(a[unsettled], inverse[unsettled])
    return flagged.reshape(shape), again.reshape(shape)


def _solve_refined(a: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Solve a x = b from one inverse of a, refined on accurate residuals.

    Works on single systems and on stacks (..., n, n).  ``b`` = None stands
    for the identity: x starts from the inverse itself, which A^{-1} @ 1
    gives entry for entry, and the residuals are 1 - a x.  x = A^{-1} b is
    refined by x += A^{-1} r.  Near-unit pair values push the condition
    number of the compose and reduction solves to ~(1-g)^{-1/2} and
    ~(1-g)^{-1}; the residuals r = b - a x are taken with the Ozaki
    split of :func:`_residual`, four float64 BLAS products accurate to about
    2^-76 |a| |x| at n = 64, which removes the resulting kappa*u forward
    error that the fidelity would otherwise amplify by another 1/sqrt(1-g).
    The fixed point of the refinement is set by the accuracy of the
    residual, not by the solver, so the one inverse serves every step while
    kappa*u << 1 (Ozaki, Ogita, Oishi and Rump, as above).  a is split, and
    embedded when complex, once per solve.  No extended-precision type is
    used, so the accuracy does not depend on the platform's long double.

    Every system takes one step.  From x = A^{-1} b, off by about n kappa u
    |x|, it leaves about (n kappa u)^2 |x|, at most 2^-66 |x| while n
    kappa_1 <= SECOND_STEP_NKAPPA: below the rounding of x, which a second
    step cannot improve.  Only the systems above that take a second step,
    as a sub-stack, so each system's result is the same in any stack.

    Raises LinAlgError when a is exactly singular, or when any system of
    the stack has 1/kappa_2 < INVERTIBILITY_TOL.  The guard reads kappa_1 =
    ||a||_1 ||a^{-1}||_1 from the same inverse (:func:`_screen`).  Since
    kappa_2 <= n kappa_1, only a system with 1/kappa_1 < n
    INVERTIBILITY_TOL can fail, and only such a system gets the SVD that
    decides.  A kappa_1 test alone would be up to n^2 stricter than the
    kappa_2 one: it would zero reduce-branch fidelities of ~2e-6 that the
    solve still gets right.  The products of the residual accumulate in
    place, so a stacked solve holds few temporaries per system.
    """
    n = a.shape[-1]
    inverse = np.linalg.inv(a)
    flagged, again = _screen(a, inverse)
    if flagged.any():
        s = np.linalg.svd(a[flagged], compute_uv=False)
        if np.any(s[:, -1] / s[:, 0] < INVERTIBILITY_TOL):
            raise np.linalg.LinAlgError(f"1/kappa_2 below {INVERTIBILITY_TOL:g}: matrix is numerically singular")
    a1, a2 = _row_split(a)
    if b is None:
        x, b = inverse, np.eye(n)
    else:
        x = inverse @ b
    x = x + inverse @ _residual(a1, a2, x, b)
    if again.any():
        b = np.broadcast_to(b, x.shape)
        x[again] += inverse[again] @ _residual(a1[again], a2[again], x[again], b[again])
    return x


def _solve_core(core: np.ndarray, rhs: np.ndarray | None) -> np.ndarray:
    """:func:`_solve_refined` on the core 1 + Gamma_2 Gamma_1 of a
    composition; raises ValueError where its guard finds the core singular."""
    try:
        return _solve_refined(core, rhs)
    except np.linalg.LinAlgError:
        raise ValueError("product state undefined: 1 + Gamma_2 Gamma_1 is singular") from None


def _compose_real(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Gamma of rho_1 rho_2 / tr(rho_1 rho_2) from real m_1, m_2 (single or
    stacked), before antisymmetrization; every solve is real.

    The regular branch composes a half state m_1, whose pair values lie
    below 1 - 4.4e-7 when the state's lie below 1 - UNIT_MODE_TOL, so there
    ||(1 - m_2 m_1)^{-1}||_2 < 2.3e6, kappa_2 < 4.5e6 and kappa_1 <= n
    kappa_2: the kappa_1 screen of :func:`_solve_refined`, kappa_1 > 1 / (n
    INVERTIBILITY_TOL), flags nothing below n = 470, so no SVD runs.  The
    identity right-hand side is passed as None, and the real and imaginary
    parts go straight into one complex array."""
    eye = np.eye(m1.shape[-1])
    a = _solve_core(eye - m2 @ m1, None)  # inverse of the real form of 1 + Gamma_2 Gamma_1
    m1a = m1 @ a
    return _complex(eye - a + m1a @ m2, a @ m2 + m1a)


def _compose_complex(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Gamma of the normalized product from complex Gamma_1, Gamma_2 (single
    or stacked), before antisymmetrization."""
    eye = np.eye(g1.shape[-1])
    core, rhs = eye + g2 @ g1, eye - g2
    del g2  # the caller's temporary, not needed during the solve
    solved = _solve_core(core, rhs)
    return eye - (eye - g1) @ solved


def gaussian_product_trace(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> float:
    """Overlap trace tr(rho_1 rho_2) = sqrt(det((1 + Gamma_1 Gamma_2) / 2)).

    In real arithmetic, as det((1 - m_1 m_2) / 2).  The determinant must be
    non-negative; a negative one within 1e-12 of 0 reads as orthogonal
    states, trace 0.
    """
    if state_1.ell != state_2.ell:
        raise ValueError("states must have the same number of modes")
    arg = (np.eye(2 * state_1.ell) - state_1.m @ state_2.m) / 2.0
    sign, logabs = np.linalg.slogdet(arg)
    det = sign * np.exp(logabs)
    if det < 0.0:
        if det > -1e-12:
            return 0.0
        raise ValueError(f"overlap determinant is negative ({det:.3e})")
    return float(np.sqrt(det))


def gaussian_compose(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> np.ndarray:
    """Complex Gamma of rho_1 rho_2 / tr(rho_1 rho_2).

    Gamma_12 = 1 - (1 - Gamma_1)(1 + Gamma_2 Gamma_1)^{-1}(1 - Gamma_2),
    from real solves.  The product is Gaussian but not Hermitian, so Gamma_12
    is complex antisymmetric, not i times a real matrix, whenever the factors
    fail to commute.  Raises ValueError where 1 + Gamma_2 Gamma_1 is
    singular to the guard of :func:`_solve_refined`.
    """
    if state_1.ell != state_2.ell:
        raise ValueError("states must have the same number of modes")
    return _antisymmetrize(_compose_real(state_1.m, state_2.m))


def _clipped_single_mode(g1: float, g2: float):
    """Two signed single-mode values clipped into [-1, 1]; raises when one
    lies outside beyond EIGENVALUE_SLACK."""
    for g in (g1, g2):
        if not -1.0 - EIGENVALUE_SLACK <= g <= 1.0 + EIGENVALUE_SLACK:
            raise ValueError(f"single-mode value {g} outside [-1, 1]")
    return float(np.clip(g1, -1.0, 1.0)), float(np.clip(g2, -1.0, 1.0))


def fidelity_single_mode(g1: float, g2: float) -> float:
    """Fidelity of two single-mode states with signed pair values g in [-1, 1]."""
    g1, g2 = _clipped_single_mode(g1, g2)
    val = 0.5 * (np.sqrt((1 + g1) * (1 + g2)) + np.sqrt((1 - g1) * (1 - g2)))
    return float(min(val, 1.0))


def _single_mode_distance(g1: float, g2: float) -> float:
    """Bures distance of two single-mode states with signed pair values g.

    With s = sqrt(1 + g) and t = sqrt(1 - g), 2 (1 - F) is
    ((s_1 - s_2)^2 + (t_1 - t_2)^2) / 2, and s_1 - s_2 = (g_1 - g_2) /
    (s_1 + s_2), t_2 - t_1 = (g_1 - g_2) / (t_1 + t_2), so

        D = |g_1 - g_2| sqrt((1/(s_1 + s_2)^2 + 1/(t_1 + t_2)^2) / 2)

    with no cancellation.  A zero denominator (g_1 = g_2 = -1 or +1) comes
    with g_1 - g_2 = 0, and its term is 0.
    """
    g1, g2 = _clipped_single_mode(g1, g2)
    sums = (math.sqrt(1 + g1) + math.sqrt(1 + g2), math.sqrt(1 - g1) + math.sqrt(1 - g2))
    terms = [1.0 / total**2 if total else 0.0 for total in sums]
    return abs(g1 - g2) * math.sqrt(sum(terms) / 2.0)


def _half_matrices(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Matrices m of sqrt(rho)/tr sqrt(rho) for a stack of states, from the
    eigensystems (``lam``, ``u``) of their Gamma.

    Taking the square root halves every mode's log-occupation ratio, which
    maps each eigenvalue x of Gamma to h(x) = x / (1 + sqrt(1 - x^2)) with
    the same eigenvector.  A pair value 1 - e moves down to roughly
    1 - sqrt(2 e).
    """
    h = lam / (1.0 + np.sqrt(np.maximum(1.0 - lam * lam, 0.0)))
    return ((u * h[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))).imag


def _metric_distances(lam: np.ndarray, u: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Second-order Bures distances of a stack of pairs, from the
    eigensystems (``lam``, ``u``) of the first states' Gamma_1 = i m_1.

    The Bures metric of fermionic Gaussian states (Banchi, Giorda and
    Zanardi, PRE 89, 022102 (2014)) reads

        D^2 = (1/8) sum_kl |(U^dag dGamma U)_kl|^2 / (1 - lambda_k lambda_l),

    with dGamma = i (m_2 - m_1).  The difference m_2 - m_1 is exact for close
    pairs and nothing cancels after it, so D keeps its relative accuracy
    however small it is.  The sum does not depend on the basis chosen inside
    a degenerate eigenspace.
    """
    x = np.conj(np.swapaxes(u, -1, -2)) @ (m2 - m1) @ u
    terms = (x.real**2 + x.imag**2) / (1.0 - lam[:, :, None] * lam[:, None, :])
    return np.sqrt(terms.sum(axis=(1, 2)) / 8.0)


def _regular_fidelities(half: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Fidelities of a stack of pairs of strictly mixed states (no pair value
    within UNIT_MODE_TOL of 1).

    ``m1`` and ``m2`` stack the two states of each pair, the more mixed one
    first, and ``half`` stacks the half states of ``m1``.  Evaluates
    tr sqrt(sqrt(rho_1) rho_2 sqrt(rho_1)) by composing correlation
    matrices: the sandwich is again Gaussian, so its trace-normalized form is
    an ordinary state whose pair values z_j give

        F = sqrt(tr(rho_1 rho_2)) * prod_j [sqrt((1+z_j)/2) + sqrt((1-z_j)/2)].

    The inputs, the half states and the sandwich state are states, bounded
    by 1 in norm.  The product sqrt(rho_1) rho_2 in between is not
    Hermitian, and its Gamma is not bounded: over 3,000 random regular pairs
    at ell = 2 to 6 with 1 - g from 1e-10 to 0.1, its spectral norm reached
    121.  The route still beats the equivalent determinant formulas, which
    build ratios (1-Gamma)/(1+Gamma) whose spectra span ~(1-g)^{-2}, so that
    near-unit pair values (physical for weakly entangled cuts) cost six or
    more digits in double precision.  Composing sqrt(rho_1) rather than
    rho_1 also caps the conditioning of the real solve at ~(1-g)^{-1/2};
    rho_1 is chosen as the more mixed of the two inputs.  No norm bound
    covers the complex solve, so its guard in :func:`_solve_refined` can
    raise; it reads kappa_1 from the inverse the solve refines with.
    Accuracy degrades only on modes where both states have an aligned pair
    value g with (1-g)^2 below double precision, where the sandwich value
    is numerically indistinguishable from 1.  Each such mode costs up to
    ~1e-8 absolute, and the costs add up over modes: at ell = 28 with 1 - g
    in [1e-10, 1e-6], the worst error over 600 pairs was 8.3e-9 per such
    mode, and 1.2e-7 with 25 of them; with 1 - g down to 1.3e-13 it was
    9.0e-9 per mode over 120 pairs.

    The sandwich state's m_z = -i Gamma_z is read straight off Gamma_z:
    its pair values are the singular values of Im Gamma_z, and its
    imaginary residue, which :func:`_warn_residues` reads, is |Re Gamma_z|.
    """
    product = _antisymmetrize(_compose_real(half, m2))
    gamma_z = _antisymmetrize(_compose_complex(product, 1j * half))
    _warn_residues(gamma_z.real, gamma_z, "sandwich correlation matrix has imaginary residue")
    zeta = np.linalg.svd(np.ascontiguousarray(gamma_z.imag), compute_uv=False)[..., 0::2]
    zeta = np.minimum(zeta, 1.0)
    sign, logabs = np.linalg.slogdet((np.eye(m1.shape[-1]) - m1 @ m2) / 2.0)
    if np.any(sign <= 0.0):
        raise ValueError("overlap determinant is not positive; states are not both strictly mixed")
    log_f = 0.25 * logabs + np.sum(np.log(np.sqrt((1.0 + zeta) / 2.0) + np.sqrt((1.0 - zeta) / 2.0)), axis=-1)
    return np.minimum(np.exp(log_f), 1.0)


def reduce_unit_modes(state_r: CorrelationMatrix, state_s: CorrelationMatrix):
    """Split off the unit pairs of the reference state ``state_r`` exactly.

    Both states are rotated into the canonical basis ``state_r.rotation``,
    where the leading ``state_r.unit_pair_count()`` pairs, those with value
    >= 1 - UNIT_MODE_TOL, form the unit block and are snapped to exactly 1
    in ``state_r``.

    Returns ``(prefactor, bulk_r, bulk_s)``: the fidelity factor contributed
    by the unit block and the two correlation matrices of the remaining
    modes, with ``bulk_s`` carrying the Schur-complement correction from the
    off-diagonal blocks.  ``bulk_r`` and the snapped block matrix come from
    ``state_r.reduction``, built once per reference state.  ``bulk_s``
    reads its pair values from one ``eigvalsh`` of its Gamma when its top
    pair value lies more than DECISION_MARGIN below 1 - UNIT_MODE_TOL and
    from that of ``bulk_r``, so that they decide branch and order as its
    ``eigh`` would; its ``eigh`` then runs only if the regular formula
    needs its half state.  Otherwise it reads them from its ``eigh``.  When
    the unit blocks are orthogonal (the overlap determinant is not
    positive, or 1 - s_x r_x is singular to the guard of
    :func:`_solve_refined`) ``(0.0, None, None)`` is returned.  Raises
    ValueError for states of unequal size.
    """
    if state_r.ell != state_s.ell:
        raise ValueError("states must have the same number of modes")
    x, r_rot, bulk_r = state_r.reduction
    if x == 0 or x == state_r.ell:
        raise ValueError("reduction needs 0 < unit pairs < total pairs")
    nx = 2 * x
    rotation = state_r.rotation
    s_rot = rotation @ state_s.m @ rotation.T
    r_x = r_rot[:nx, :nx]
    s_x = s_rot[:nx, :nx]
    sign, logabs = np.linalg.slogdet((np.eye(nx) - r_x @ s_x) / 2.0)
    if sign <= 0.0:
        return 0.0, None, None
    prefactor = float(np.exp(0.25 * logabs))
    try:
        solved = _solve_refined(np.eye(nx) - s_x @ r_x, s_rot[:nx, nx:])
    except np.linalg.LinAlgError:
        return 0.0, None, None
    correction = s_rot[nx:, :nx] @ r_x @ solved
    s_bulk = s_rot[nx:, nx:] + correction
    s_bulk = (s_bulk - s_bulk.T) / 2.0
    bulk_s = CorrelationMatrix(s_bulk, validate=False)
    if bulk_s.ell > 1:
        lam = np.linalg.eigvalsh(1j * s_bulk)
        top = _pair_values_of(lam)[0]
        if top < 1.0 - UNIT_MODE_TOL - DECISION_MARGIN and abs(top - bulk_r.pair_values[0]) > DECISION_MARGIN:
            bulk_s.eigenvalues = lam
    return prefactor, bulk_r, bulk_s


def _dispatch(state_1: CorrelationMatrix, state_2: CorrelationMatrix):
    """Branch of one pair of equal size: its fidelity, or, where it needs
    the regular formula, the sandwich ``(first, second, prefactors)`` that
    :func:`_sandwich_value` turns into it.  ``first`` is the more mixed
    state of the regular pair, which may be the bulk pair of a reduction,
    and ``prefactors`` are the unit-block factors of the reductions on the
    way, innermost first."""
    if state_1.ell == 1:
        return fidelity_single_mode(state_1.m[0, 1], state_2.m[0, 1])
    if not (state_1.unit_pair_count() or state_2.unit_pair_count()):
        # the more mixed state first
        if state_1.pair_values[0] > state_2.pair_values[0]:
            state_1, state_2 = state_2, state_1
        return state_1, state_2, ()
    if not (state_1.is_pure() or state_2.is_pure()):
        if state_2.unit_pair_count() > state_1.unit_pair_count():
            state_1, state_2 = state_2, state_1
        prefactor, bulk_r, bulk_s = reduce_unit_modes(state_1, state_2)
        if prefactor == 0.0:
            return 0.0
        bulk = _dispatch(bulk_r, bulk_s)
        if isinstance(bulk, float):
            return _sandwich_value(bulk, (prefactor,))
        first, second, prefactors = bulk
        return first, second, prefactors + (prefactor,)
    # one state is pure
    return float(min(np.sqrt(gaussian_product_trace(state_1, state_2)), 1.0))


def _sandwich_value(f, prefactors) -> float:
    """The fidelity of a pair from its regular-formula value ``f``: times
    each prefactor in turn and clipped into [0, 1], as each reduction scales
    the fidelity of its bulk pair."""
    f = float(f)
    for prefactor in prefactors:
        f = float(np.clip(prefactor * f, 0.0, 1.0))
    return f


def fidelity(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> float:
    """Uhlmann fidelity F(rho_1, rho_2) of two fermionic Gaussian states.

    Dispatches on system size and on how many canonical pair values of each
    state sit within UNIT_MODE_TOL of 1; see the module docstring.  The
    result is clamped into [0, 1].
    """
    if state_1.ell != state_2.ell:
        raise ValueError("states must have the same number of modes")
    branch = _dispatch(state_1, state_2)
    if isinstance(branch, float):
        return branch
    first, second, prefactors = branch
    return _sandwich_value(_regular_fidelities(first.half[None], first.m[None], second.m[None])[0], prefactors)


class _Sandwiches:
    """Regular-formula evaluations of :func:`_pair_kernel`, queued by matrix
    size n = 2 ell and run through :func:`_regular_fidelities` in stacks:
    of SANDWICH_PAIRS pairs within SANDWICH_PAIRS x STACK_ELEMENTS matrix
    elements, at least one pair, or of a kernel stack's worth,
    STACK_ELEMENTS // n^2, where that is more.  A stack runs once the queue
    holds it, and :meth:`run` runs what is left.  A pair's value does not
    depend on its stack, so neither does the result."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.queued = {}  # n -> chunks (positions, half, m1, m2) of stacked pairs

    def add(self, at, half, m1, m2):
        """Queue the pairs at positions ``at`` of ``values``: stacks of the
        half state of the more mixed state, its m and the other state's m."""
        n = m1.shape[-1]
        chunks = self.queued.setdefault(n, [])
        chunks.append((at, half, m1, m2))
        batch = max(1, STACK_ELEMENTS // n**2, min(SANDWICH_PAIRS, SANDWICH_PAIRS * STACK_ELEMENTS // n**2))
        if sum(len(chunk[0]) for chunk in chunks) >= batch:
            at, half, m1, m2 = self._take(chunks)
            full = len(at) - len(at) % batch
            for start in range(0, full, batch):
                part = slice(start, start + batch)
                self.values[at[part]] = _regular_fidelities(half[part], m1[part], m2[part])
            if full < len(at):
                chunks.append((at[full:], half[full:], m1[full:], m2[full:]))

    def run(self):
        """Evaluate every pair still queued."""
        for chunks in self.queued.values():
            if chunks:
                at, half, m1, m2 = self._take(chunks)
                self.values[at] = _regular_fidelities(half, m1, m2)

    @staticmethod
    def _take(chunks: list):
        """The queued chunks as one stack each, emptying the queue, so that
        no chunk outlives the stack it was copied into."""
        stacked = chunks[0] if len(chunks) == 1 else tuple(np.concatenate(parts) for parts in zip(*chunks))
        chunks.clear()
        return stacked


def pair_fidelities(m, pairs) -> np.ndarray:
    """Fidelities of the states m[i] and m[j] for every (i, j) in ``pairs``.

    ``m`` is a stack (n, 2 ell, 2 ell) of correlation matrices, as
    :func:`fgdist.ising.subsystem_correlations` returns; any other shape
    raises ValueError, and so does a pair index that is not an integer in
    0..n-1.  The stack is made exactly antisymmetric first, as
    :class:`CorrelationMatrix` makes its matrix, so a pair's value equals
    :func:`fidelity` of the pair bit for bit, also on a stack that deviates
    within ANTISYMMETRY_TOL.  It does not depend on the other pairs of the
    call.  The pairs are taken in position order, in kernel stacks of at
    most STACK_ELEMENTS matrix elements.
    Each state is decomposed once, by a stacked ``eigh`` of its Gamma = i m,
    when the first stack that holds it comes up, and its pair values from
    that eigensystem decide each pair's branch and which state is more mixed.
    A stack's regular pairs take the half state of each one's more mixed
    state from the same eigensystem, built once per state with no unit
    pairs when the state is decomposed, so an all-pairs sweep builds it once
    per state, not once per pair.  Every other pair goes to the dispatch of
    :func:`fidelity`, on a state that carries that eigensystem and keeps its
    rotation for its later pairs.  Both kinds of pair queue their
    regular-formula evaluations, a regular pair its own and a reduce pair
    that of its bulk pair when that is regular, and the queue runs them in
    stacks of SANDWICH_PAIRS pairs, or of a kernel stack's worth where that
    is more, across kernel stacks.  A state's data is dropped after the last
    stack that holds it, so a sweep over consecutive pairs holds about one
    stack's worth of decompositions, and an exactly antisymmetric stack, as
    every sweep's is, is never copied whole.
    """
    return _pair_kernel(m, pairs, metric=False)[0]


def _pair_kernel(m, pairs, metric: bool):
    """(values, direct) for every pair of the stack ``m``, in one pass over
    stacks of pairs: the fidelity, or, where ``direct`` is set, a Bures
    distance that does not go through F.  Only with ``metric`` is any pair
    direct: a single-mode pair, which takes :func:`_single_mode_distance`,
    and a regular-branch pair whose metric distance D_m of
    :func:`_metric_distances` lies below SMALL_DISTANCE sqrt(2 (1 - g_max)),
    g_max the largest pair value of its two states.  D_m is computed only
    where its lower bound ||m_2 - m_1||_F / 4 lies below twice that switch;
    no other pair can be near.

    Every other regular-formula evaluation goes to one :class:`_Sandwiches`
    queue, and a reduce pair whose bulk pair is queued keeps the prefactors
    of its reductions until the queue has run: its value is then scaled as
    :func:`fidelity` scales it, so the queue changes no value."""
    m = _state_stack(m)
    ell = m.shape[1] // 2
    pairs = _index_pairs(pairs, len(m))
    values = np.empty(len(pairs))
    direct = np.zeros(len(pairs), dtype=bool)
    if ell == 1:
        single = _single_mode_distance if metric else fidelity_single_mode
        values[:] = [single(m[i, 0, 1], m[j, 0, 1]) for i, j in pairs.tolist()]
        direct[:] = metric
        return values, direct

    per_stack = max(1, STACK_ELEMENTS // (2 * ell) ** 2)
    last_stack = {k: p // (2 * per_stack) for p, k in enumerate(pairs.ravel().tolist())}
    largest = np.zeros(len(m))  # each state's top pair value, once decomposed
    eigen, halves, states = {}, {}, {}
    sandwiches = _Sandwiches(values)
    scaled = {}  # position -> prefactors of a reduce pair whose bulk pair is queued
    for start in range(0, len(pairs), per_stack):
        stack = pairs[start : start + per_stack]
        pending = [k for k in dict.fromkeys(stack.ravel().tolist()) if k not in eigen]
        if pending:
            lam, u = _eigensystems(m[pending])
            largest[pending] = _pair_values_of(lam)[:, 0]
            eigen.update(zip(pending, zip(lam, u)))
            # the half state of every state a regular pair can take first, once per state
            mixed = np.flatnonzero(largest[pending] < 1.0 - UNIT_MODE_TOL)
            halves.update(zip(np.take(pending, mixed).tolist(), _half_matrices(lam[mixed], u[mixed])))
        # a state has no unit pairs exactly when its top pair value is below 1 - UNIT_MODE_TOL
        regular = (largest[stack] < 1.0 - UNIT_MODE_TOL).all(axis=1)
        if regular.any():
            # in a regular pair the more mixed state, with the smaller top value, goes first
            swap = largest[stack[:, 0]] > largest[stack[:, 1]]
            first, second = np.where(swap[:, None], stack[:, ::-1], stack)[regular].T
            at = start + np.flatnonzero(regular)
            half = np.stack([halves[k] for k in first.tolist()])
            m1, m2 = m[first], m[second]
            if metric:
                switch = SMALL_DISTANCE * np.sqrt(2.0 * (1.0 - largest[second]))
                # U is unitary and every denominator of D_m is at most 2, so D_m >=
                # ||m_2 - m_1||_F / 4: a pair above twice the switch cannot be near
                maybe = np.linalg.norm(m2 - m1, axis=(1, 2)) / 4.0 < 2.0 * switch
                if maybe.any():
                    lam, u = map(np.stack, zip(*(eigen[k] for k in first[maybe].tolist())))
                    distances = _metric_distances(lam, u, m1[maybe], m2[maybe])
                    near = np.zeros_like(maybe)
                    near[maybe] = distances < switch[maybe]
                    values[at[near]] = distances[near[maybe]]
                    direct[at[near]] = True
                    at, half, m1, m2 = at[~near], half[~near], m1[~near], m2[~near]
            if len(at):
                sandwiches.add(at, half, m1, m2)
        for p in np.flatnonzero(~regular).tolist():
            for k in stack[p].tolist():
                if k not in states:
                    states[k] = CorrelationMatrix(m[k], validate=False)
                    states[k].eigensystem = eigen[k]
            branch = _dispatch(*(states[k] for k in stack[p].tolist()))
            if isinstance(branch, float):
                values[start + p] = branch
            else:
                first, second, scaled[start + p] = branch
                sandwiches.add(np.array([start + p]), first.half[None], first.m[None], second.m[None])
        eigen = {k: e for k, e in eigen.items() if last_stack[k] > start // per_stack}
        halves = {k: h for k, h in halves.items() if k in eigen}
        states = {k: state for k, state in states.items() if k in eigen}
    sandwiches.run()
    for p, prefactors in scaled.items():
        values[p] = _sandwich_value(values[p], prefactors)
    return values, direct


def bures_distance(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> float:
    """Bures distance sqrt(2 (1 - F)) between two Gaussian states; see
    :func:`bures_distances`."""
    if state_1.ell != state_2.ell:
        raise ValueError("states must have the same number of modes")
    return float(bures_distances(np.stack([state_1.m, state_2.m]), [(0, 1)])[0])


def bures_distances(m, pairs) -> np.ndarray:
    """Bures distances sqrt(2 (1 - F)) of the states m[i] and m[j] of a
    stack (n, 2 ell, 2 ell) for every (i, j) in ``pairs``; see
    :func:`pair_fidelities`.

    For close pairs this form cancels: one ulp of F is a distance of 1.5e-8.
    So a pair of states with no unit pairs takes the second-order Bures
    metric D_m of :func:`_metric_distances` instead, when D_m lies below the
    switch SMALL_DISTANCE sqrt(2 (1 - g_max)), g_max the largest pair value
    of the two states: at most 1.4e-5.  D_m comes from the eigensystem of
    Gamma = i m of the more mixed state, the one the regular branch already
    takes for its half state.  With t = D_m / sqrt(2 (1 - g_max)) <
    SMALL_DISTANCE the exact distance lies within t (1 + 3 t) D_m of D_m;
    the single-mode closed form reaches t D_m to leading order.  At the
    switch the fidelity route, with F good to about ten ulp, is off by
    about 1e-15 / D, the same size.  Single-mode pairs take the closed form
    of :func:`_single_mode_distance` at every distance.
    """
    values, direct = _pair_kernel(m, pairs, metric=True)
    return np.where(direct, values, np.sqrt(2.0 * np.maximum(1.0 - values, 0.0)))
