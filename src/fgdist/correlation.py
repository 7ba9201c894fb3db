"""Correlation-matrix algebra for fermionic Gaussian states.

A Gaussian state of ``ell`` fermionic modes is represented by the real
antisymmetric matrix ``m`` of shape ``(2*ell, 2*ell)`` built from Majorana
two-point functions,

    Gamma_{ab} = tr(rho d_a d_b) - delta_{ab},      Gamma = i m,

with the interleaved Majorana ordering d_1, d_2 = (x-type, y-type) of mode 1,
then mode 2, and so on.  Gamma is Hermitian with spectrum {+g_j, -g_j}; the
pair values g_j are the singular values of ``m`` and lie in [0, 1].  A state
is pure exactly when every pair value equals 1.

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
solution twice on residuals from Ozaki-split float64 products, with no
extended-precision type.  Their invertibility guard screens with kappa_1
from the same inverse and takes an SVD only of a system the screen flags.

:func:`fidelity` runs this dispatch on one pair, and the reduction recurses
into it on the smaller pair.  :func:`pair_fidelities` takes the states as
one (n, 2 ell, 2 ell) stack of m, reads every state's pair values from one
SVD of it, runs the regular branch on stacks of pairs and hands every other
pair to the same dispatch.  A regular pair needs no rotation: the half state
of its more mixed state comes from the eigensystem of Gamma = i m, one
stacked ``eigh`` per state, so degenerate pair values need no care.  Only
the reduce branch takes a real Schur form (:func:`canonical_form`), cached
on the state like its pair values.

Bures distances take one more path.  sqrt(2 (1 - F)) cancels for close
pairs, where one ulp of F is a distance of 1.5e-8, so
:func:`bures_distances` gives a regular-branch pair (ell > 1, no pair value
of either state within UNIT_MODE_TOL of 1) whose second-order metric
distance lies below SMALL_DISTANCE sqrt(2 (1 - g_max)) that distance
instead, computed from m_2 - m_1 in the eigenbasis of the more mixed
state's Gamma (:func:`_metric_distances`), and a single-mode pair the
closed form of :func:`_single_mode_distance`, which does not cancel.  The
fidelity functions never take either: a fidelity within 1e-16 of 1 cannot
be stored.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "CorrelationMatrix",
    "CanonicalForm",
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

# Tolerances.  ANTISYMMETRY_TOL guards construction; EIGENVALUE_SLACK is how
# far above 1 a pair value may land before the input is rejected rather than
# snapped; UNIT_MODE_TOL decides when a mode counts as exactly occupied or
# empty for branch dispatch.
ANTISYMMETRY_TOL = 1e-12
EIGENVALUE_SLACK = 1e-9
UNIT_MODE_TOL = 1e-10
CANONICAL_RECONSTRUCTION_TOL = 1e-10
INVERTIBILITY_TOL = 1e-12

# A composed Gamma's antisymmetry deviation, and the sandwich state's
# imaginary residue, are logged above this fraction of the matrix's largest
# entry, or of 1 if that is larger.  Composition amplifies the float64
# rounding of its inputs by about ||(1 + Gamma_2 Gamma_1)^{-1}||^2, up to 5e9
# in the real solve of a regular pair, where the half state keeps that norm
# below 7.1e4.  Over 40,000 random regular pairs at ell = 2 to 6 with 1 - g
# down to 1e-10, the largest deviation was 6.2e-7 of the largest entry:
# rounding, not a fault.
ROUNDING_RESIDUE_TOL = 1e-4

# Bures distances of close regular pairs come from the second-order metric
# below this multiple of sqrt(2 (1 - g_max)); see bures_distances.
SMALL_DISTANCE = 1e-5

# Regular-branch pairs are evaluated in stacks of at most this many matrix
# elements, pairs x (2 ell)^2, so temporaries stay small at large ell.
STACK_ELEMENTS = 4096


class CorrelationMatrix:
    """Majorana correlation matrix of a fermionic Gaussian state.

    Parameters
    ----------
    m : array_like
        Real antisymmetric matrix of shape (2*ell, 2*ell) with Gamma = i*m.
    validate : bool
        Check shape, finite entries and antisymmetry on construction
        (cheap); the singular value range check runs lazily on first use.
    """

    def __init__(self, m, *, validate: bool = True):
        m = np.asarray(m, dtype=float)
        if validate:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"correlation matrix must be square, got {m.shape}")
            n = m.shape[0]
            if n < 2 or n % 2:
                raise ValueError(f"matrix dimension must be even and >= 2, got {n}")
            if not np.isfinite(m).all():
                raise ValueError("correlation matrix has non-finite entries")
            dev = np.abs(m + m.T).max()
            if dev > ANTISYMMETRY_TOL:
                raise ValueError(f"matrix is not antisymmetric (deviation {dev:.3e})")
            m = (m - m.T) / 2.0
        self.m = m
        self.ell = m.shape[0] // 2
        self._pair_values = None
        self._form = None  # canonical form, computed when the reduce branch first needs it

    @property
    def pair_values(self) -> np.ndarray:
        """Canonical pair values g_j, descending, snapped into [0, 1]."""
        if self._pair_values is None:
            self._pair_values = _snapped_pair_values(np.linalg.svd(self.m, compute_uv=False))
        return self._pair_values

    def unit_pair_count(self) -> int:
        return int(_unit_pairs(self.pair_values))

    def is_pure(self) -> bool:
        return self.unit_pair_count() == self.ell

    def restrict(self, ell_keep: int) -> "CorrelationMatrix":
        """Correlation matrix of the leading ``ell_keep`` modes."""
        if not 1 <= ell_keep <= self.ell:
            raise ValueError(f"cannot keep {ell_keep} of {self.ell} modes")
        return CorrelationMatrix(self.m[: 2 * ell_keep, : 2 * ell_keep], validate=False)

    def __repr__(self):
        return f"CorrelationMatrix(ell={self.ell})"


@dataclass
class CanonicalForm:
    """Block canonical form of a correlation matrix.

    ``rotation @ m @ rotation.T`` equals the direct sum of blocks
    [[0, g_j], [-g_j, 0]] with ``pair_values`` g_j sorted descending.
    """

    pair_values: np.ndarray
    rotation: np.ndarray


def _snapped_pair_values(svals: np.ndarray) -> np.ndarray:
    """Pair values from the descending singular values of one matrix or a
    stack: every other one, since each appears twice, snapped to at most 1.
    Raises when one exceeds 1 beyond EIGENVALUE_SLACK."""
    top = svals.max(initial=0.0)
    if top > 1.0 + EIGENVALUE_SLACK:
        raise ValueError(f"pair value {top:.15g} exceeds 1 beyond slack {EIGENVALUE_SLACK}")
    return np.minimum(svals[..., 0::2], 1.0)


def _state_stack(m) -> np.ndarray:
    """``m`` as a float stack (n, 2 ell, 2 ell) of correlation matrices, not
    copied when it is one already; raises ValueError on any other shape."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] % 2 or not m.shape[1]:
        raise ValueError(f"need a stack of 2 ell x 2 ell correlation matrices, got shape {m.shape}")
    return m


def _index_pairs(pairs, n: int) -> np.ndarray:
    """``pairs`` as a (k, 2) int64 array, k = 0 included; raises ValueError
    unless every index addresses one of the n states, 0..n-1."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and not (0 <= pairs.min() and pairs.max() < n):
        raise ValueError(f"pair indices must lie in 0..{n - 1}")
    return pairs


def _unit_pairs(values: np.ndarray):
    """How many pair values count as exactly 1 for branch dispatch, per row
    of a stack."""
    return np.sum(values >= 1.0 - UNIT_MODE_TOL, axis=-1)


def _block_matrix(values: np.ndarray) -> np.ndarray:
    """Direct sum of [[0, g_j], [-g_j, 0]] over the values g_j."""
    n = len(values)
    b = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    b[2 * idx, 2 * idx + 1] = values
    b[2 * idx + 1, 2 * idx] = -values
    return b


def canonical_form(state: CorrelationMatrix) -> CanonicalForm:
    """Rotate a real antisymmetric matrix to its 2x2 block canonical form.

    Returns an orthogonal rotation O and pair values g_j >= 0 (descending)
    with O m O^T = blkdiag([[0, g_j], [-g_j, 0]]).  The real Schur form of an
    antisymmetric matrix is block diagonal up to roundoff; the rest is sign
    fixing and sorting.
    """
    m = state.m
    n = m.shape[0]
    t, z = scipy.linalg.schur(m, output="real")
    rotation = z.T.copy()
    pairs = []
    singles = []
    k = 0
    while k < n:
        if k + 1 < n and t[k + 1, k] != 0.0:
            g = t[k, k + 1]
            if g < 0.0:
                rotation[[k, k + 1]] = rotation[[k + 1, k]]
                g = -g
            pairs.append((g, k, k + 1))
            k += 2
        else:
            # 1x1 block: zero eigenvalue; these come in even numbers
            singles.append(k)
            k += 1
    for a, b in zip(singles[0::2], singles[1::2]):
        pairs.append((0.0, a, b))
    pairs.sort(key=lambda item: -item[0])
    perm = []
    values = []
    for g, a, b in pairs:
        perm.extend((a, b))
        values.append(g)
    rotation = rotation[perm]
    values = np.array(values)
    # the residual is taken before clamping, so values inside the slack above
    # 1 pass it, and values beyond the slack are rejected as pair_values does
    residual = np.abs(rotation @ m @ rotation.T - _block_matrix(values)).max()
    if residual > CANONICAL_RECONSTRUCTION_TOL:
        raise ValueError(f"canonical form reconstruction residual {residual:.3e}")
    if values[0] > 1.0 + EIGENVALUE_SLACK:
        raise ValueError(f"pair value {values[0]:.15g} exceeds 1 beyond slack {EIGENVALUE_SLACK}")
    return CanonicalForm(pair_values=np.minimum(values, 1.0), rotation=rotation)


def _warn_residues(residue: np.ndarray, matrices: np.ndarray, what: str):
    """Log each residue that exceeds ROUNDING_RESIDUE_TOL times the largest
    entry of its matrix of the stack, or times 1 if that is larger: the
    composition adds terms of order 1 even where its result is near 0."""
    scale = np.maximum(np.abs(matrices).max(axis=(-2, -1)), 1.0)
    for r, t in zip(*np.atleast_1d(residue, scale)):
        if r > ROUNDING_RESIDUE_TOL * t:
            logger.warning("%s %.3e at scale %.3e", what, r, t)


def _antisymmetrize(gamma: np.ndarray) -> np.ndarray:
    """(gamma - gamma^T) / 2 over the last two axes, warning per matrix
    whose antisymmetry deviation exceeds ROUNDING_RESIDUE_TOL times its
    largest entry, or times 1 if that is larger."""
    flipped = np.swapaxes(gamma, -1, -2)
    _warn_residues(np.abs(gamma + flipped).max(axis=(-2, -1)), gamma, "composite correlation antisymmetry deviation")
    return (gamma - flipped) / 2.0


def _split(v: np.ndarray, axis: int, inner: int):
    """Ozaki split v = v1 + v2 along ``axis``: each row (axis -1) or column
    (axis -2) is rounded at sigma = 2^(ceil(log2 mu) + ceil((53 + log2 n) / 2)),
    mu its largest magnitude and n the inner dimension of the product, so the
    leading parts hold at most 53 - ceil((53 + log2 n) / 2) bits below the
    top bit of their row or column."""
    mu = np.maximum(v.max(axis=axis, keepdims=True), -v.min(axis=axis, keepdims=True))
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
        a = np.concatenate([np.concatenate([a.real, -a.imag], axis=-1), np.concatenate([a.imag, a.real], axis=-1)], -2)
    return _split(a, -1, a.shape[-1])


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
        x, b = (np.concatenate([v.real, v.imag], axis=-2) for v in (x, b))
    x1, x2 = _split(x, -2, a1.shape[-1])
    del x  # the embedded copy is not needed past the split
    r = (b - a1 @ x1) - (a1 @ x2 + a2 @ x1 + a2 @ x2)
    return r[..., :n, :] + 1j * r[..., n:, :] if embed else r


def _solve_refined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b from one inverse of a, refined twice on accurate
    residuals.

    Works on single systems and on stacks (..., n, n).  x = A^{-1} b is
    refined twice by x += A^{-1} r.  Near-unit pair values push the
    condition number of the compose and reduction solves to ~(1-g)^{-1/2}
    and ~(1-g)^{-1}; the residuals r = b - a x are taken with the Ozaki
    split of :func:`_residual`, four float64 BLAS products accurate to about
    2^-76 |a| |x| at n = 64, which removes the resulting kappa*u forward
    error that the fidelity would otherwise amplify by another 1/sqrt(1-g).
    The fixed point of the refinement is set by the accuracy of the
    residual, not by the solver, so the one inverse serves every step while
    kappa*u << 1 (Ozaki, Ogita, Oishi and Rump, as above).  a is split, and
    embedded when complex, once per solve.  No extended-precision type is
    used, so the accuracy does not depend on the platform's long double.

    Raises LinAlgError when a is exactly singular, or when any system of
    the stack has 1/kappa_2 < INVERTIBILITY_TOL.  The guard reads kappa_1 =
    ||a||_1 ||a^{-1}||_1 from the same inverse.  Since kappa_2 <= n kappa_1,
    only a system with 1/kappa_1 < n INVERTIBILITY_TOL can fail, and only
    such a system gets the SVD that decides.  A kappa_1 test alone would be
    up to n^2 stricter than the kappa_2 one: it would zero reduce-branch
    fidelities of ~2e-6 that the solve still gets right.
    """
    n = a.shape[-1]
    inverse = np.linalg.inv(a)
    kappa = np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(inverse).sum(axis=-2).max(axis=-1)
    flagged = ~(kappa <= 1.0 / (n * INVERTIBILITY_TOL))  # NaN is flagged too
    if flagged.any():
        s = np.linalg.svd(a[flagged], compute_uv=False)
        if np.any(s[:, -1] / s[:, 0] < INVERTIBILITY_TOL):
            raise np.linalg.LinAlgError(f"1/kappa_2 below {INVERTIBILITY_TOL:g}: matrix is numerically singular")
    a1, a2 = _row_split(a)
    x = inverse @ b
    for _ in range(2):
        x = x + inverse @ _residual(a1, a2, x, b)
    return x


def _solve_core(core: np.ndarray, rhs: np.ndarray) -> np.ndarray:
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
    below 1 - 1.4e-5 when the state's lie below 1 - UNIT_MODE_TOL, so there
    ||(1 - m_2 m_1)^{-1}||_2 < 7.1e4, kappa_2 < 1.5e5 and kappa_1 <= n
    kappa_2: the kappa_1 screen of :func:`_solve_refined`, kappa_1 > 1 / (n
    INVERTIBILITY_TOL), flags nothing below n = 2,600, so no SVD runs."""
    eye = np.eye(m1.shape[-1])
    a = _solve_core(eye - m2 @ m1, eye)  # real form of 1 + Gamma_2 Gamma_1
    return (eye - a + m1 @ a @ m2) + 1j * (a @ m2 + m1 @ a)


def _compose_complex(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Gamma of the normalized product from complex Gamma_1, Gamma_2 (single
    or stacked), before antisymmetrization."""
    eye = np.eye(g1.shape[-1])
    return eye - (eye - g1) @ _solve_core(eye + g2 @ g1, eye - g2)


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


def _eigensystems(ms: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of Gamma = i m for a stack
    of states: the pair values are the eigenvalues +-g_j."""
    return np.linalg.eigh(1j * ms)


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
    mode, and 1.2e-7 with 25 of them.
    """
    product = _antisymmetrize(_compose_real(half, m2))
    m_z = -1j * _antisymmetrize(_compose_complex(product, 1j * half))
    _warn_residues(np.abs(m_z.imag).max(axis=(-2, -1)), m_z, "sandwich correlation matrix has imaginary residue")
    zeta = np.linalg.svd(np.ascontiguousarray(m_z.real), compute_uv=False)[..., 0::2]
    zeta = np.minimum(zeta, 1.0)
    sign, logabs = np.linalg.slogdet((np.eye(m1.shape[-1]) - m1 @ m2) / 2.0)
    if np.any(sign <= 0.0):
        raise ValueError("overlap determinant is not positive; states are not both strictly mixed")
    log_f = 0.25 * logabs + np.sum(np.log(np.sqrt((1.0 + zeta) / 2.0) + np.sqrt((1.0 - zeta) / 2.0)), axis=-1)
    return np.minimum(np.exp(log_f), 1.0)


def _regular_fidelity(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> float:
    """The regular formula for one pair, as a stack of one."""
    if state_1.pair_values[0] > state_2.pair_values[0]:  # the more mixed state goes first
        state_1, state_2 = state_2, state_1
    m1 = state_1.m[None]
    return float(_regular_fidelities(_half_matrices(*_eigensystems(m1)), m1, state_2.m[None])[0])


def reduce_unit_modes(state_r: CorrelationMatrix, state_s: CorrelationMatrix, form: CanonicalForm):
    """Split off the unit pairs of the reference state ``state_r`` exactly.

    ``form`` is the canonical form of ``state_r``.  Both states are rotated
    into its basis, where the leading pairs with value >= 1 - UNIT_MODE_TOL
    form the unit block and are snapped to exactly 1 in ``state_r``.

    Returns ``(prefactor, bulk_r, bulk_s)``: the fidelity factor contributed
    by the unit block and the two correlation matrices of the remaining
    modes, with ``bulk_s`` carrying the Schur-complement correction from the
    off-diagonal blocks.  When the unit blocks are orthogonal (the overlap
    determinant is not positive, or 1 - s_x r_x is singular to the guard
    of :func:`_solve_refined`) ``(0.0, None, None)`` is returned.
    """
    x = int(_unit_pairs(form.pair_values))
    if x == 0 or x == state_r.ell:
        raise ValueError("reduction needs 0 < unit pairs < total pairs")
    nx = 2 * x
    r_rot = _block_matrix(np.concatenate([np.ones(x), form.pair_values[x:]]))
    s_rot = form.rotation @ state_s.m @ form.rotation.T
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
    return (
        prefactor,
        CorrelationMatrix(r_rot[nx:, nx:], validate=False),
        CorrelationMatrix(s_bulk, validate=False),
    )


def _dispatch(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> float:
    """Fidelity of one pair of equal size, in whichever branch it falls."""
    if state_1.ell == 1:
        return fidelity_single_mode(state_1.m[0, 1], state_2.m[0, 1])
    if not (state_1.unit_pair_count() or state_2.unit_pair_count()):
        return _regular_fidelity(state_1, state_2)
    if not (state_1.is_pure() or state_2.is_pure()):
        if state_2.unit_pair_count() > state_1.unit_pair_count():
            state_1, state_2 = state_2, state_1
        if state_1._form is None:
            state_1._form = canonical_form(state_1)
        form = state_1._form
        units = _unit_pairs(form.pair_values)
        # the svd-based dispatch counts and the Schur form can read a value
        # within a few ulp of the threshold differently; fall through to the
        # regular or the pure formula instead of crashing on the knife edge
        if units == 0:
            return _regular_fidelity(state_1, state_2)
        if units < state_1.ell:
            prefactor, bulk_r, bulk_s = reduce_unit_modes(state_1, state_2, form)
            if prefactor == 0.0:
                return 0.0
            value = prefactor * _dispatch(bulk_r, bulk_s)
            return float(np.clip(value, 0.0, 1.0))
    # one state is pure, or the Schur form reads every pair as a unit pair
    return float(min(np.sqrt(gaussian_product_trace(state_1, state_2)), 1.0))


def fidelity(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> float:
    """Uhlmann fidelity F(rho_1, rho_2) of two fermionic Gaussian states.

    Dispatches on system size and on how many canonical pair values of each
    state sit within UNIT_MODE_TOL of 1; see the module docstring.  The
    result is clamped into [0, 1].
    """
    if state_1.ell != state_2.ell:
        raise ValueError("states must have the same number of modes")
    return _dispatch(state_1, state_2)


def pair_fidelities(m, pairs) -> np.ndarray:
    """Fidelities of the states m[i] and m[j] for every (i, j) in ``pairs``.

    ``m`` is a stack (n, 2 ell, 2 ell) of correlation matrices, as
    :func:`fgdist.ising.subsystem_correlations` returns; any other shape
    raises ValueError.  A pair's value does not depend on the other pairs of
    the call.  The pair values of every state come from one stacked SVD of
    ``m``.  Regular-branch pairs are evaluated together, in position order
    and in stacks of at most STACK_ELEMENTS matrix elements; the eigensystem
    of Gamma = i m of each one's more mixed state is computed once and
    dropped after the last stack that needs it.  Every other pair goes to the
    scalar dispatch of :func:`fidelity`, on a state made when a pair first
    needs it and dropped, with its canonical form, after that state's last
    such pair.  So a sweep over consecutive pairs holds about one stack's
    worth of decompositions, and the stack itself is never copied whole.
    """
    return _pair_kernel(m, pairs, metric=False)[0]


def _pair_kernel(m, pairs, metric: bool):
    """(values, direct) for every pair of the stack ``m``: the fidelity, or,
    where ``direct`` is set, a Bures distance that does not go through F.
    Only with ``metric`` is any pair direct: a single-mode pair, which takes
    :func:`_single_mode_distance`, and a regular-branch pair whose metric
    distance D_m of :func:`_metric_distances` lies below SMALL_DISTANCE
    sqrt(2 (1 - g_max)), g_max the largest pair value of its two states."""
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
    pair_values = _snapped_pair_values(np.linalg.svd(m, compute_uv=False))
    units, largest = _unit_pairs(pair_values), pair_values[:, 0]
    regular = (units[pairs] == 0).all(axis=1)
    # in a regular pair the more mixed state, with the smaller top value, goes first
    swap = largest[pairs[:, 0]] > largest[pairs[:, 1]]
    ordered = np.where(swap[:, None], pairs[:, ::-1], pairs)

    per_stack = max(1, STACK_ELEMENTS // (2 * ell) ** 2)
    positions = np.flatnonzero(regular)
    firsts, seconds = ordered[positions].T
    last_stack = {k: s // per_stack for s, k in enumerate(firsts.tolist())}
    eigen = {}
    for start in range(0, len(positions), per_stack):
        at, first, second = (a[start : start + per_stack] for a in (positions, firsts, seconds))
        pending = [k for k in dict.fromkeys(first.tolist()) if k not in eigen]
        if pending:
            eigen.update(zip(pending, zip(*_eigensystems(m[pending]))))
        lam, u = map(np.stack, zip(*(eigen[k] for k in first.tolist())))
        m1, m2 = m[first], m[second]
        if metric:
            distances = _metric_distances(lam, u, m1, m2)
            near = distances < SMALL_DISTANCE * np.sqrt(2.0 * (1.0 - largest[second]))
            values[at[near]] = distances[near]
            direct[at[near]] = True
            at, lam, u, m1, m2 = at[~near], lam[~near], u[~near], m1[~near], m2[~near]
        if len(at):
            values[at] = _regular_fidelities(_half_matrices(lam, u), m1, m2)
        eigen = {k: e for k, e in eigen.items() if last_stack[k] > start // per_stack}

    scalar = np.flatnonzero(~regular).tolist()
    last_pair = {k: p for p in scalar for k in pairs[p].tolist()}
    live = {}
    for p in scalar:
        i, j = pairs[p].tolist()
        for k in (i, j):
            if k not in live:
                live[k] = CorrelationMatrix(m[k], validate=False)
                live[k]._pair_values = pair_values[k]
        values[p] = _dispatch(live[i], live[j])
        for k in (i, j):
            if last_pair[k] == p:
                live.pop(k, None)
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
