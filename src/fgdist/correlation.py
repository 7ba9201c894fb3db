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
general mixed-state fidelity composes complex correlation matrices, for the
sandwich sqrt(rho_1) rho_2 sqrt(rho_1).

The fidelity of two states is computed by branch dispatch:

* one mode: closed form in the two signed pair values;
* no pair value of either state within UNIT_MODE_TOL of 1: the composition
  sandwich of :func:`fidelity_regular`, whose matrices all stay bounded by 1
  in norm;
* every pair value of one state within UNIT_MODE_TOL of 1: quartic-root
  overlap determinant;
* otherwise: rotate into the canonical basis of the state with more
  near-unit pairs, split off those modes exactly, and recurse on a strictly
  smaller problem.

Unit modes must be split off first because the overlap determinant and the
composition solve (1 + Gamma_2 Gamma_1)^{-1} turn singular when an occupied
mode meets an empty one.

Every fidelity goes through :func:`pair_fidelities`.  It computes each
state's canonical form and half state once, runs the regular branch on
stacks of pairs and hands the other branches to the scalar dispatch;
:func:`fidelity` is :func:`pair_fidelities` on a single pair.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "CorrelationMatrix",
    "CanonicalForm",
    "ModePartition",
    "GaussianProduct",
    "canonical_form",
    "classify_modes",
    "gaussian_product_trace",
    "gaussian_compose",
    "fidelity",
    "pair_fidelities",
    "fidelity_single_mode",
    "fidelity_pure",
    "fidelity_regular",
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
IMAG_RESIDUE_TOL = 1e-10
INVERTIBILITY_TOL = 1e-12

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
        Check shape and antisymmetry on construction (cheap); the singular
        value range check runs lazily on first use.
    """

    def __init__(self, m, *, validate: bool = True):
        m = np.asarray(m, dtype=float)
        if validate:
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"correlation matrix must be square, got {m.shape}")
            n = m.shape[0]
            if n < 2 or n % 2:
                raise ValueError(f"matrix dimension must be even and >= 2, got {n}")
            dev = np.abs(m + m.T).max()
            if dev > ANTISYMMETRY_TOL:
                raise ValueError(f"matrix is not antisymmetric (deviation {dev:.3e})")
            m = (m - m.T) / 2.0
        self.m = m
        self.ell = m.shape[0] // 2
        self._pair_values = None

    @property
    def pair_values(self) -> np.ndarray:
        """Canonical pair values g_j, descending, snapped into [0, 1]."""
        if self._pair_values is None:
            svals = np.linalg.svd(self.m, compute_uv=False)
            high = svals[svals > 1.0]
            if high.size and high.max() > 1.0 + EIGENVALUE_SLACK:
                raise ValueError(
                    f"pair value {high.max():.15g} exceeds 1 beyond slack {EIGENVALUE_SLACK}"
                )
            svals = np.minimum(svals, 1.0)
            # each pair value appears twice among the singular values
            self._pair_values = svals[0::2].copy()
        return self._pair_values

    def unit_pair_count(self) -> int:
        return int(np.sum(self.pair_values >= 1.0 - UNIT_MODE_TOL))

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

    def blocks(self) -> np.ndarray:
        return _block_matrix(self.pair_values)


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


@dataclass
class ModePartition:
    """Both states rotated into the canonical basis of the first, whose
    leading ``unit_pairs`` near-unit pairs (X, snapped exact in ``r_rot``)
    come before the other ``bulk_pairs`` (Y)."""

    unit_pairs: int
    bulk_pairs: int
    r_rot: np.ndarray
    s_rot: np.ndarray


def classify_modes(
    state_r: CorrelationMatrix,
    state_s: CorrelationMatrix,
    form: CanonicalForm | None = None,
) -> ModePartition:
    """Split the mode space by the unit pairs of the first state.

    The first state's canonical rotation is applied to both; pairs of the
    first state with value >= 1 - UNIT_MODE_TOL form the X block and are
    snapped to exactly 1 there.  ``form`` is the first state's canonical
    form when the caller already has it.
    """
    if state_r.ell != state_s.ell:
        raise ValueError("states must have the same number of modes")
    if form is None:
        form = canonical_form(state_r)
    x = int(np.sum(form.pair_values >= 1.0 - UNIT_MODE_TOL))
    r_rot = form.blocks()
    for j in range(x):
        r_rot[2 * j, 2 * j + 1] = 1.0
        r_rot[2 * j + 1, 2 * j] = -1.0
    s_rot = form.rotation @ state_s.m @ form.rotation.T
    return ModePartition(unit_pairs=x, bulk_pairs=state_r.ell - x, r_rot=r_rot, s_rot=s_rot)


class GaussianProduct:
    """Correlation data of a normalized product rho_1 rho_2 / tr(rho_1 rho_2).

    The product of two Gaussian density matrices is a Gaussian operator but
    not Hermitian, so its correlation matrix is complex antisymmetric rather
    than i times a real matrix.
    """

    def __init__(self, gamma: np.ndarray):
        gamma = np.asarray(gamma, dtype=complex)
        self.gamma = _antisymmetrize(gamma)
        self.ell = gamma.shape[0] // 2

    def __repr__(self):
        return f"GaussianProduct(ell={self.ell})"


def _antisymmetrize(gamma: np.ndarray) -> np.ndarray:
    """(gamma - gamma^T) / 2 over the last two axes, warning per matrix
    whose antisymmetry deviation exceeds IMAG_RESIDUE_TOL."""
    flipped = np.swapaxes(gamma, -1, -2)
    dev = np.atleast_1d(np.abs(gamma + flipped).max(axis=(-2, -1)))
    for d in dev[dev > IMAG_RESIDUE_TOL]:
        logger.warning("composite correlation antisymmetry deviation %.3e", d)
    return (gamma - flipped) / 2.0


def _gamma_of(state) -> np.ndarray:
    if isinstance(state, CorrelationMatrix):
        return 1j * state.m
    if isinstance(state, GaussianProduct):
        return state.gamma
    raise TypeError(f"expected CorrelationMatrix or GaussianProduct, got {type(state)}")


def _solve_refined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b with extended-precision iterative refinement.

    Works on single systems and on stacks (..., n, n).  Near-unit pair
    values push the condition number of the compose and reduction solves to
    ~(1-g)^{-1/2} and ~(1-g)^{-1}; computing residuals in long double
    removes the resulting kappa*u forward error, which the fidelity would
    otherwise amplify by another 1/sqrt(1-g).
    """
    x = np.linalg.solve(a, b)
    high = np.clongdouble if np.iscomplexobj(a) or np.iscomplexobj(b) else np.longdouble
    a_h = a.astype(high)
    b_h = b.astype(high)
    for _ in range(2):
        residual = b_h - a_h @ x.astype(high)
        x = x + np.linalg.solve(a, residual.astype(x.dtype))
    return x


def _require_invertible(core: np.ndarray):
    if np.any(1.0 / np.linalg.cond(core) < INVERTIBILITY_TOL):
        raise ValueError("product state undefined: 1 + Gamma_2 Gamma_1 is singular")


def _compose_real(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Gamma of rho_1 rho_2 / tr(rho_1 rho_2) from real m_1, m_2 (single or
    stacked), before antisymmetrization; every solve is real."""
    eye = np.eye(m1.shape[-1])
    core = eye - m2 @ m1  # real form of 1 + Gamma_2 Gamma_1
    _require_invertible(core)
    a = _solve_refined(core, eye)
    return (eye - a + m1 @ a @ m2) + 1j * (a @ m2 + m1 @ a)


def _compose_complex(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Gamma of the normalized product from complex Gamma_1, Gamma_2 (single
    or stacked), before antisymmetrization."""
    eye = np.eye(g1.shape[-1])
    core = eye + g2 @ g1
    _require_invertible(core)
    return eye - (eye - g1) @ _solve_refined(core, eye - g2)


def gaussian_product_trace(state_1, state_2) -> float:
    """Overlap trace tr(rho_1 rho_2) = sqrt(det((1 + Gamma_1 Gamma_2) / 2)).

    Accepts CorrelationMatrix (the usual case, fully real arithmetic) or a
    GaussianProduct from :func:`gaussian_compose`.  The determinant must be
    real up to a small residue and non-negative.
    """
    if isinstance(state_1, CorrelationMatrix) and isinstance(state_2, CorrelationMatrix):
        if state_1.ell != state_2.ell:
            raise ValueError("states must have the same number of modes")
        arg = (np.eye(2 * state_1.ell) - state_1.m @ state_2.m) / 2.0
        sign, logabs = np.linalg.slogdet(arg)
        det = sign * np.exp(logabs)
    else:
        g1, g2 = _gamma_of(state_1), _gamma_of(state_2)
        if g1.shape != g2.shape:
            raise ValueError("states must have the same number of modes")
        det_c = np.linalg.det((np.eye(g1.shape[0]) + g1 @ g2) / 2.0)
        if abs(det_c.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(det_c.real)):
            raise ValueError(f"overlap determinant has imaginary residue {det_c.imag:.3e}")
        det = det_c.real
    if det < 0.0:
        if det > -1e-12:
            return 0.0
        raise ValueError(f"overlap determinant is negative ({det:.3e})")
    return float(np.sqrt(det))


def gaussian_compose(state_1, state_2) -> GaussianProduct:
    """Correlation matrix of rho_1 rho_2 / tr(rho_1 rho_2).

    Gamma_12 = 1 - (1 - Gamma_1)(1 + Gamma_2 Gamma_1)^{-1}(1 - Gamma_2).
    Two plain states compose through real solves; once either factor is
    already a product the arithmetic is complex.  The result is complex
    antisymmetric whenever the factors fail to commute.
    """
    g1, g2 = _gamma_of(state_1), _gamma_of(state_2)
    if g1.shape != g2.shape:
        raise ValueError("states must have the same number of modes")
    if isinstance(state_1, CorrelationMatrix) and isinstance(state_2, CorrelationMatrix):
        return GaussianProduct(_compose_real(state_1.m, state_2.m))
    return GaussianProduct(_compose_complex(g1, g2))


def fidelity_single_mode(g1: float, g2: float) -> float:
    """Fidelity of two single-mode states with signed pair values g in [-1, 1]."""
    for g in (g1, g2):
        if not -1.0 - EIGENVALUE_SLACK <= g <= 1.0 + EIGENVALUE_SLACK:
            raise ValueError(f"single-mode value {g} outside [-1, 1]")
    g1 = float(np.clip(g1, -1.0, 1.0))
    g2 = float(np.clip(g2, -1.0, 1.0))
    val = 0.5 * (np.sqrt((1 + g1) * (1 + g2)) + np.sqrt((1 - g1) * (1 - g2)))
    return float(min(val, 1.0))


def fidelity_pure(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> float:
    """Fidelity when at least one state is pure: sqrt of the overlap trace."""
    if not (state_1.is_pure() or state_2.is_pure()):
        raise ValueError("fidelity_pure requires at least one pure state")
    return float(np.sqrt(gaussian_product_trace(state_1, state_2)))


def _half_matrix(form: CanonicalForm) -> np.ndarray:
    """Matrix m of sqrt(rho)/tr sqrt(rho), from rho's canonical form.

    Taking the square root halves every mode's log-occupation ratio, which
    maps each pair value g to g / (1 + sqrt(1 - g^2)) in the same canonical
    basis.  A pair value 1 - e moves down to roughly 1 - sqrt(2 e).
    """
    g = form.pair_values
    half = g / (1.0 + np.sqrt(np.maximum(1.0 - g * g, 0.0)))
    return form.rotation.T @ _block_matrix(half) @ form.rotation


def _half_state(state: CorrelationMatrix) -> CorrelationMatrix:
    """Correlation matrix of sqrt(rho)/tr sqrt(rho)."""
    return CorrelationMatrix(_half_matrix(canonical_form(state)), validate=False)


def _more_mixed_second(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> bool:
    """Whether state_2 is the more mixed one, i.e. the regular branch swaps."""
    return float(np.max(state_1.pair_values, initial=0.0)) > float(np.max(state_2.pair_values, initial=0.0))


def _regular_fidelities(half: np.ndarray, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Regular-branch fidelities of a stack of pairs.

    ``m1`` and ``m2`` stack the two states of each pair, the more mixed one
    first, and ``half`` stacks the half states of ``m1``; see
    :func:`fidelity_regular` for the formula.
    """
    product = _antisymmetrize(_compose_real(half, m2))
    m_z = -1j * _antisymmetrize(_compose_complex(product, 1j * half))
    residue = np.abs(m_z.imag).max(axis=(-2, -1))
    for r in residue[residue > 1e-8]:
        logger.warning("sandwich correlation matrix has imaginary residue %.3e", r)
    zeta = np.linalg.svd(np.ascontiguousarray(m_z.real), compute_uv=False)[..., 0::2]
    zeta = np.minimum(zeta, 1.0)
    sign, logabs = np.linalg.slogdet((np.eye(m1.shape[-1]) - m1 @ m2) / 2.0)
    if np.any(sign <= 0.0):
        raise ValueError("overlap determinant is not positive; states are not both strictly mixed")
    log_f = 0.25 * logabs + np.sum(np.log(np.sqrt((1.0 + zeta) / 2.0) + np.sqrt((1.0 - zeta) / 2.0)), axis=-1)
    return np.minimum(np.exp(log_f), 1.0)


def _regular_fidelity(state_1: CorrelationMatrix, state_2: CorrelationMatrix, form_of) -> float:
    """The regular formula for one pair, as a stack of one; ``form_of`` maps
    a state to its canonical form."""
    if _more_mixed_second(state_1, state_2):
        state_1, state_2 = state_2, state_1
    half = _half_matrix(form_of(state_1))
    return float(_regular_fidelities(half[None], state_1.m[None], state_2.m[None])[0])


def fidelity_regular(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> float:
    """Fidelity of two strictly mixed states (no pair value within
    UNIT_MODE_TOL of 1).

    Evaluates tr sqrt(sqrt(rho_1) rho_2 sqrt(rho_1)) by composing correlation
    matrices: the sandwich is again Gaussian, so its trace-normalized form is
    an ordinary state whose pair values z_j give

        F = sqrt(tr(rho_1 rho_2)) * prod_j [sqrt((1+z_j)/2) + sqrt((1-z_j)/2)].

    Every matrix along this route is bounded by 1 in norm.  That matters:
    the equivalent determinant formulas build ratios (1-Gamma)/(1+Gamma)
    whose spectra span ~(1-g)^{-2}, and near-unit pair values (physical for
    weakly entangled cuts) then cost six or more digits in double precision.
    Composing sqrt(rho_1) rather than rho_1 also caps the solve conditioning
    at ~(1-g)^{-1/2}; rho_1 is chosen as the more mixed of the two inputs.
    Accuracy degrades to ~1e-8 absolute only when both states share an
    aligned pair value g with (1-g)^2 below double precision, where the
    sandwich value is numerically indistinguishable from 1.
    """
    if state_1.unit_pair_count() or state_2.unit_pair_count():
        raise ValueError("fidelity_regular requires strictly mixed states; reduce unit modes first")
    return _regular_fidelity(state_1, state_2, canonical_form)


def reduce_unit_modes(partition: ModePartition):
    """Split off the unit pairs of the reference state exactly.

    Returns ``(prefactor, bulk_r, bulk_s)``: the fidelity factor contributed
    by the unit block and the two correlation matrices of the remaining
    modes, with ``bulk_s`` carrying the Schur-complement correction from the
    off-diagonal blocks.  When the unit blocks are orthogonal (the overlap
    determinant is not positive, or 1 - s_x r_x is singular to
    INVERTIBILITY_TOL) ``(0.0, None, None)`` is returned.
    """
    x = partition.unit_pairs
    if x == 0 or partition.bulk_pairs == 0:
        raise ValueError("reduction needs 0 < unit pairs < total pairs")
    nx = 2 * x
    r_rot, s_rot = partition.r_rot, partition.s_rot
    r_x = r_rot[:nx, :nx]
    s_x = s_rot[:nx, :nx]
    sign, logabs = np.linalg.slogdet((np.eye(nx) - r_x @ s_x) / 2.0)
    if sign <= 0.0:
        return 0.0, None, None
    prefactor = float(np.exp(0.25 * logabs))
    core = np.eye(nx) - s_x @ r_x
    if 1.0 / np.linalg.cond(core) < INVERTIBILITY_TOL:
        return 0.0, None, None
    correction = s_rot[nx:, :nx] @ r_x @ _solve_refined(core, s_rot[:nx, nx:])
    s_bulk = s_rot[nx:, nx:] + correction
    s_bulk = (s_bulk - s_bulk.T) / 2.0
    return (
        prefactor,
        CorrelationMatrix(r_rot[nx:, nx:], validate=False),
        CorrelationMatrix(s_bulk, validate=False),
    )


def _dispatch(state_1: CorrelationMatrix, state_2: CorrelationMatrix, form_of) -> float:
    """Fidelity of a pair of equal size that is not regular: the single,
    pure and reduce branches; ``form_of`` maps either input state to its
    canonical form."""
    if state_1.ell == 1:
        return fidelity_single_mode(state_1.m[0, 1], state_2.m[0, 1])
    if state_1.is_pure() or state_2.is_pure():
        return fidelity_pure(state_1, state_2)
    if state_2.unit_pair_count() > state_1.unit_pair_count():
        state_1, state_2 = state_2, state_1
    partition = classify_modes(state_1, state_2, form_of(state_1))
    # the svd-based dispatch counts and the Schur-based partition can read a
    # value within a few ulp of the threshold differently; fall through
    # instead of crashing on the knife edge
    if partition.unit_pairs == 0:
        return _regular_fidelity(state_1, state_2, form_of)
    if partition.bulk_pairs == 0:
        return float(min(np.sqrt(gaussian_product_trace(state_1, state_2)), 1.0))
    prefactor, bulk_r, bulk_s = reduce_unit_modes(partition)
    if prefactor == 0.0:
        return 0.0
    value = prefactor * fidelity(bulk_r, bulk_s)
    return float(np.clip(value, 0.0, 1.0))


def fidelity(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> float:
    """Uhlmann fidelity F(rho_1, rho_2) of two fermionic Gaussian states.

    Dispatches on system size and on how many canonical pair values of each
    state sit within UNIT_MODE_TOL of 1; see the module docstring.  The
    result is clamped into [0, 1].
    """
    return float(pair_fidelities([state_1, state_2], [(0, 1)])[0])


def pair_fidelities(states, pairs) -> np.ndarray:
    """Fidelities F(states[i], states[j]) for every (i, j) in ``pairs``.

    A pair's value does not depend on the other pairs of the call.
    Regular-branch pairs are evaluated together, in stacks of at most
    STACK_ELEMENTS matrix elements; the other branches go through the
    scalar dispatch.  A state's canonical form and half state are computed
    at most once, when a pair first needs them, and dropped after the last
    pair that uses the state, so a sweep over consecutive pairs holds about
    one stack's worth of them.
    """
    pairs = [(int(i), int(j)) for i, j in pairs]
    values = np.empty(len(pairs))
    if len({states[k].ell for pair in pairs for k in pair}) > 1:
        raise ValueError("states must have the same number of modes")
    last_use = {k: p for p, pair in enumerate(pairs) for k in pair}
    forms, halves = {}, {}
    stack = []  # (position, more mixed state index, other state index)

    def form_of(k):
        if k not in forms:
            forms[k] = canonical_form(states[k])
        return forms[k]

    def release(indices, position):
        for k in indices:
            if last_use[k] <= position:
                forms.pop(k, None)
                halves.pop(k, None)

    def evaluate_stack(position):
        positions, firsts, seconds = zip(*stack)
        for k in firsts:
            if k not in halves:
                halves[k] = _half_matrix(form_of(k))
        values[list(positions)] = _regular_fidelities(
            np.stack([halves[k] for k in firsts]),
            np.stack([states[k].m for k in firsts]),
            np.stack([states[k].m for k in seconds]),
        )
        stack.clear()
        release(set(firsts + seconds), position)

    for p, (i, j) in enumerate(pairs):
        a, b = states[i], states[j]
        if a.ell > 1 and a.unit_pair_count() == 0 and b.unit_pair_count() == 0:
            stack.append((p, j, i) if _more_mixed_second(a, b) else (p, i, j))
            if len(stack) >= max(1, STACK_ELEMENTS // (2 * a.ell) ** 2):
                evaluate_stack(p)
            continue
        values[p] = _dispatch(a, b, lambda state: form_of(i if state is a else j))
        release({i, j}.difference(k for entry in stack for k in entry[1:]), p)
    if stack:
        evaluate_stack(len(pairs) - 1)
    return values


def bures_distance(state_1: CorrelationMatrix, state_2: CorrelationMatrix) -> float:
    """Bures distance sqrt(2 (1 - F)) between two Gaussian states."""
    return float(bures_distances([state_1, state_2], [(0, 1)])[0])


def bures_distances(states, pairs) -> np.ndarray:
    """Bures distances of ``states[i], states[j]`` for every (i, j) in
    ``pairs``; see :func:`pair_fidelities`."""
    gap = np.maximum(1.0 - pair_fidelities(states, pairs), 0.0)
    return np.sqrt(2.0 * gap)
