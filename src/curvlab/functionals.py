"""Curvature functionals: sectional, bisectional, tempered, and their extremal certificates.

Every functional takes a :class:`~curvlab.chern.ChernPoint` and is evaluated
in its unitary frame, where the metric is the identity and norms are plain
Euclidean.  The tempered Ricci form also has a chart version,
:func:`ric_tau`, beside :func:`ric_tau_frame`: it reads only chart tensors,
so the point forms no frame.  Arguments:

* ``zeta``, ``nu``: nonzero frame vectors (holomorphic up indices),
* ``xi``: a positive semidefinite Hermitian form with raised indices,
  normalised to unit Frobenius norm (:class:`~curvlab.tensor_core.PSDForm`).

The tempering parameter ``tau`` interpolates the torsion correction.  On the
target side (real bisectional curvature) the correction weight is
``(1 - tau) / 4`` and ``tau`` ranges over ``[0, inf)``; on the source side
(tempered Ricci) it is ``(1 - 1/tau) / 4`` with ``tau`` in ``(0, inf]``.

The extremal certificates bracket the sup or inf of HSC and of ``RBC^tau``
at every point of a stacked :class:`~curvlab.chern.ChernPoint`: a
Lagrangian dual bound from one batched safeguarded Newton search over its
multiplier, a witness with its exact value, and their gap.  The dual is
exact for ``n <= 2``; a finite-difference ascent from seeded starts runs only
where a gap stays open.  :func:`comparison_deviation` bounds the pluriclosed
identity ``RBC^0 = altered HSC / 2`` over every unit Hermitian form at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .chern import (ChernPoint, form_pairing, frame_traces, q_squared_chart, q_squared_frame,
                    second_ricci, swap24, torsion_product_a)
from .errors import ConfigError, NumericalError, require
from .tensor_core import PSDForm, hermitian_part, psd_project_batch

__all__ = [
    "TauParam",
    "BoundCertificate",
    "real_part",
    "hsc",
    "rbc",
    "rbc_forms",
    "altered_hsc",
    "altered_hsc_forms",
    "comparison_deviation",
    "ric_tau_frame",
    "ric_tau",
    "extremize_hsc",
    "extremize_rbc",
    "hsc_certificates",
    "rbc_certificates",
]

_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class TauParam:
    """Tempering parameter with its admissible range per role.

    ``role`` is ``"target"`` for bisectional-curvature tempering (allows 0,
    forbids infinity) or ``"source"`` for Ricci tempering (allows infinity,
    forbids 0).
    """

    value: float
    role: str

    def __post_init__(self) -> None:
        if self.role not in ("target", "source"):
            raise ConfigError(f"unknown tau role '{self.role}'")
        if self.value < 0 or math.isnan(self.value):
            raise ConfigError(f"tau must be nonnegative, got {self.value}")
        if self.role == "target" and math.isinf(self.value):
            raise ConfigError("target tempering does not extend to tau = inf")
        if self.role == "source" and self.value == 0:
            raise ConfigError("source tempering does not extend to tau = 0")

    @property
    def target_weight(self) -> float:
        """Coefficient ``(1 - tau) / 4`` on the torsion square."""
        if self.role != "target":
            raise ConfigError(f"tau has role '{self.role}', expected 'target'")
        return (1.0 - self.value) / 4.0

    @property
    def source_weight(self) -> float:
        """Coefficient ``(1 - 1/tau) / 4``; equals ``1/4`` at tau = inf."""
        if self.role != "source":
            raise ConfigError(f"tau has role '{self.role}', expected 'source'")
        if math.isinf(self.value):
            return 0.25
        return (1.0 - 1.0 / self.value) / 4.0


def real_part(values, label: str, scale=1.0):
    """``values / scale`` for real ``scale``; ConfigError unless every result is real."""
    real = values.real / scale
    imag = values.imag / scale
    # ~(a > b) rather than a <= b: a NaN part passes here
    require(~(np.abs(imag) > _IMAG_TOL * np.maximum(1.0, np.abs(real))), ConfigError,
            "{} should be real, got imaginary part {:.3e}", label, imag)
    return real


def _rank_one(vectors: np.ndarray) -> np.ndarray:
    """The forms ``v v^H``, ``(B, n, n)``, of the rows ``v`` of ``(B, n)``."""
    return vectors[:, :, None] * np.conj(vectors[:, None, :])


def _form_values(tensor: np.ndarray, forms: np.ndarray, label: str) -> np.ndarray:
    """``tensor[..., a, b, c, d] xi[a, b] xi[c, d] / |xi|^2`` for each ``xi`` of ``(..., B, n, n)``.

    On rank-one ``zeta zeta^H`` this is sectional curvature: ``|zeta zeta^H| = |zeta|^2``.
    """
    norm2 = np.real(np.sum(forms * np.conj(forms), axis=(-2, -1)))
    if np.any(norm2 == 0.0):
        raise ConfigError(f"{label} needs a nonzero argument")
    return real_part(form_pairing(tensor, forms, forms), label, norm2)


def _tempered_tensor(point: ChernPoint, tau: TauParam) -> np.ndarray:
    """``R - ((1 - tau)/4) T T*`` in the frame; exactly ``R`` at ``tau = 1``."""
    r = point.curvature_frame
    weight = tau.target_weight
    if weight == 0.0:
        return r
    return r - weight * torsion_product_a(point.torsion_frame)


def hsc(point: ChernPoint, zeta: np.ndarray) -> float:
    """Holomorphic sectional curvature of the frame vector ``zeta``."""
    forms = _rank_one(np.asarray(zeta, dtype=complex)[None])
    value = _form_values(point.curvature_frame, forms, "holomorphic sectional curvature")
    return float(value[0])


def _one_form(xi: PSDForm | np.ndarray) -> np.ndarray:
    """``xi`` as a batch of one form, ``(1, n, n)``."""
    return np.asarray(xi.entries if isinstance(xi, PSDForm) else xi, dtype=complex)[None]


def rbc(point: ChernPoint, xi: PSDForm | np.ndarray, tau: TauParam) -> float:
    """Tempered real bisectional curvature of the form ``xi``.

    ``RBC^tau(xi)`` contracts ``R - ((1 - tau)/4) T T*`` twice against ``xi``
    and divides by the squared Frobenius norm.  At ``tau = 1`` the torsion
    term drops and rank-one forms reproduce holomorphic sectional curvature.
    """
    return float(rbc_forms(point, _one_form(xi), tau)[0])


def rbc_forms(point: ChernPoint, forms: np.ndarray, tau: TauParam) -> np.ndarray:
    """:func:`rbc` of each form of ``forms`` ``(..., B, n, n)``, at the point(s) of ``point``."""
    return _form_values(_tempered_tensor(point, tau), forms, "real bisectional curvature")


def altered_hsc(point: ChernPoint, xi: PSDForm | np.ndarray) -> float:
    """The swapped-slot sectional functional ``(R[a,b,c,d] + R[a,d,c,b]) xi xi``.

    For pluriclosed metrics half of this equals ``RBC^0``.
    """
    return float(altered_hsc_forms(point, _one_form(xi))[0])


def _altered_tensor(point: ChernPoint) -> np.ndarray:
    """``R + R^24`` in the frame, the tensor of :func:`altered_hsc`."""
    r = point.curvature_frame
    return r + swap24(r)


def altered_hsc_forms(point: ChernPoint, forms: np.ndarray) -> np.ndarray:
    """:func:`altered_hsc` of each form of ``forms`` ``(..., B, n, n)`` at the point(s) given."""
    return _form_values(_altered_tensor(point), forms, "altered sectional curvature")


def comparison_deviation(point: ChernPoint) -> np.ndarray:
    """Largest ``|RBC^0(xi) - altered_hsc(xi) / 2|`` over unit Hermitian forms ``xi``.

    Both sides are quadratic forms in ``xi`` over the same norm, so the gap is
    the quadratic form ``K_d`` (:func:`_quadratic_forms`) of the difference
    tensor ``(R - TT*/4) - (R + R^24)/2``, and its largest magnitude over unit
    forms is the spectral radius of ``K_d``.  PSD forms are Hermitian, so this
    bounds the gap of every PSD form; it vanishes for pluriclosed metrics.  One
    value per point, with the point's batch axes.
    """
    difference = _tempered_tensor(point, TauParam(0.0, "target")) - 0.5 * _altered_tensor(point)
    return np.max(np.abs(np.linalg.eigvalsh(_quadratic_forms(difference))), axis=-1)


def ric_tau_frame(point: ChernPoint, tau: TauParam) -> np.ndarray:
    """Tempered Ricci form in the unitary frame.

    ``Ric^tau = Ric^(2) + ((1 - 1/tau)/4) Q`` with ``Q`` the torsion square.
    At ``tau = 1`` this returns the second Ricci trace unchanged.
    """
    ric2 = frame_traces(point.curvature_frame).ric2
    if tau.value == 1.0:
        return ric2
    return ric2 + tau.source_weight * q_squared_frame(point.torsion_frame)


def ric_tau(point: ChernPoint, tau: TauParam) -> np.ndarray:
    """Tempered Ricci form ``Ric^(2) + ((1 - 1/tau)/4) Q`` in chart coordinates.

    ``Q`` enters as its chart form, so no frame is built; the point may carry
    any leading batch axes.  At ``tau = 1`` this returns the second Ricci
    trace unchanged and the torsion is not read.
    """
    ric2 = second_ricci(point.g_up, point.curvature)
    if tau.value == 1.0:
        return ric2
    return ric2 + tau.source_weight * q_squared_chart(point.torsion, point.g, point.g_up)


# ---------------------------------------------------------------------------
# extremizers
#
# In the real coordinates x of a Hermitian form over _hermitian_basis, both
# functionals are x^T K x / x^T x: over rank-one forms for HSC, over PSD
# forms for RBC.  x^T J x = e2(X) vanishes on the first and is nonnegative
# on the second, so lambda_max(K + mu J) bounds the sup for every real mu
# (HSC) and every mu >= 0 (RBC).  For n <= 2 the least such bound is the sup
# (Polyak, JOTA 99 (1998); Polik & Terlaky, SIAM Rev. 49 (2007)).

_TOLERANCE = 1e-12
# the ascent's first step length and its central-difference step
_BASE_STEP = 1e-2
_FD_STEP = 1e-5
# eigenvalues within this of the top one, relative to max(1, |top|), count as
# tied: a tenth of the gap tolerance, so mixing tied eigenvectors cannot open a gap
_TIE = 1e-13
# evaluations of phi per point at most, and the fraction of its bracket's
# width that ends the multiplier search: what 53 halvings would reach
_EVALUATIONS = 53
_RESOLUTION = 2.0**-53
# a Newton step below this fraction of the bracket's width ends it too
_NEWTON_STOP = 2.0**-40


@dataclass(frozen=True)
class BoundCertificate:
    """A two-sided certificate of the sup or inf of a functional at one point.

    ``bound`` is the Lagrangian dual bound, above a sup and below an inf;
    ``value`` re-evaluates exactly on ``witness``, so the extremum lies
    between them.  ``gap`` is ``bound - value`` for a sup and ``value -
    bound`` for an inf, nonnegative up to round-off.  ``samples`` counts the
    seeded starts.  The ascent runs from them only where the gap of the dual
    witness exceeds ``tolerance * max(1, |value|)``, and
    ``ascent_iterations`` counts its accepted steps: 0 where the dual closed
    the gap.  ``kind`` is ``"sup"`` or ``"inf"``.
    """

    kind: str
    value: float
    witness: np.ndarray
    samples: int
    ascent_iterations: int
    tolerance: float
    bound: float
    gap: float


@np.errstate(over="ignore", invalid="ignore")
def _ascend(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    owner: np.ndarray,
    maximize: bool,
    steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central-difference gradient ascent of every row of ``x0`` at once.

    ``objective(rows, owner)`` maps ``(B, dim)`` rows at the points
    ``owner`` ``(B,)`` to ``(B,)`` values; row ``k`` of ``x0`` belongs to
    point ``owner[k]``.  Each start keeps its own step size and
    accepted-step count; returns rows, values, counts.
    """
    x = x0.copy()
    value = objective(x, owner)
    count, dim = x.shape
    step = np.full(count, _BASE_STEP)
    accepted = np.zeros(count, dtype=int)
    active = np.ones(count, dtype=bool)
    axis = np.arange(dim)
    for _ in range(steps):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        high = np.repeat(x[live, None, :], dim, axis=1)
        high[:, axis, axis] += _FD_STEP
        low = high.copy()
        low[:, axis, axis] -= 2 * _FD_STEP
        probes = np.tile(np.repeat(owner[live], dim), 2)
        f_high, f_low = objective(
            np.concatenate([high, low]).reshape(-1, dim), probes
        ).reshape(2, -1, dim)
        grad = (f_high - f_low) / (2 * _FD_STEP)
        if not maximize:
            grad = -grad
        scale = np.linalg.norm(grad, axis=1)
        # a start stops when its gradient vanishes or is not finite, or when
        # halving its step down to 1e-14 finds no better point
        moving = np.isfinite(scale) & (scale != 0.0)
        active[live[~moving]] = False
        live, grad, scale = live[moving], grad[moving], scale[moving]
        while live.size:
            candidate = x[live] + step[live, None] * grad / scale[:, None]
            trial = objective(candidate, owner[live])
            better = trial > value[live] if maximize else trial < value[live]
            won = live[better]
            x[won], value[won] = candidate[better], trial[better]
            step[won] = np.minimum(step[won] * 1.3, 1.0)
            accepted[won] += 1
            live, grad, scale = live[~better], grad[~better], scale[~better]
            step[live] *= 0.5
            stuck = step[live] <= 1e-14
            active[live[stuck]] = False
            live, grad, scale = live[~stuck], grad[~stuck], scale[~stuck]
    return x, value, accepted


@cache
def _hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of the Hermitian ``n x n`` matrices, ``(n*n, n, n)``.

    The diagonal units come first, then for each ``k < l`` the symmetric and
    the antisymmetric pair on ``(k, l)``, ``(l, k)``.
    """
    unit = np.eye(n * n, dtype=complex).reshape(n, n, n, n)
    s = 1.0 / math.sqrt(2.0)
    basis = [unit[k, k] for k in range(n)]
    for k, l in itertools.combinations(range(n), 2):
        basis += [s * unit[k, l] + s * unit[l, k], 1j * s * unit[k, l] - 1j * s * unit[l, k]]
    basis = np.array(basis)
    basis.flags.writeable = False
    return basis


@cache
def _minor_form(n: int) -> np.ndarray:
    """``J`` with ``x^T J x = e2(X)``, the sum of the 2x2 principal minors of ``X``.

    ``e2(X) = ((tr X)^2 - tr X^2) / 2`` and the basis is orthonormal, so
    ``J = (t t^T - I) / 2`` with ``t_i = tr E_i``: zero for ``n = 1``, the
    polarised determinant for ``n = 2``.  Its eigenvalues are ``(n - 1)/2``
    and ``-1/2``.
    """
    t = np.real(np.trace(_hermitian_basis(n), axis1=-2, axis2=-1))
    j = 0.5 * (np.outer(t, t) - np.eye(n * n))
    j.flags.writeable = False
    return j


def _quadratic_forms(tensor: np.ndarray) -> np.ndarray:
    """``K[..., i, j]`` with ``x^T K x = tensor[a, b, c, d] X[a, b] X[c, d]``, ``X = sum_i x_i E_i``.

    Only the symmetric part of the real pairing enters a quadratic form.
    """
    basis = _hermitian_basis(tensor.shape[-1])
    half = np.einsum("...abcd,jcd->...abj", tensor, basis)
    k = np.einsum("iab,...abj->...ij", basis, half).real
    return 0.5 * (k + np.swapaxes(k, -2, -1))


def _tied_block(eigs: np.ndarray, vecs: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, ...]:
    """``J`` on the span of the eigenvectors of ``K + mu J`` tied with the top one.

    ``eigs`` ``(P, m)`` and ``vecs`` ``(P, m, m)`` decompose ``K + mu J``.
    Returns the tied mask ``(P, m)``, ``V^T J V`` ``(P, m, m)``, the extreme
    eigenvalues ``a_min <= a_max`` ``(P,)`` of ``J`` on the span and their
    eigenvectors ``u_min``, ``u_max`` ``(P, m)`` in the coordinates of
    ``vecs``.  ``[a_min, a_max]`` is the subdifferential of ``phi`` at ``mu``.
    """
    top = eigs[:, -1:]
    tied = top - eigs <= _TIE * np.maximum(1.0, np.abs(top))
    projected = np.swapaxes(vecs, -2, -1) @ j @ vecs
    # a simple top eigenvector is the whole span
    a_min, a_max = projected[:, -1, -1].copy(), projected[:, -1, -1].copy()
    u_min = np.zeros(eigs.shape)
    u_min[:, -1] = 1.0
    u_max = u_min.copy()
    several = np.flatnonzero(tied.sum(axis=-1) > 1)
    if several.size:
        span = tied[several]
        block = np.where(span[:, :, None] & span[:, None, :], projected[several], 0.0)
        # untied directions are parked at pad, beyond every eigenvalue of the
        # block, so the block's eigenvalues come first
        pad = np.abs(projected[several]).sum(axis=(-2, -1)) + 1.0
        diagonal = np.arange(eigs.shape[-1])
        block[:, diagonal, diagonal] += pad[:, None] * ~span
        a, u = np.linalg.eigh(block)
        last = span.sum(axis=-1)[:, None] - 1
        a_min[several], u_min[several] = a[:, 0], u[..., 0]
        a_max[several] = np.take_along_axis(a, last, axis=-1)[:, 0]
        u_max[several] = np.take_along_axis(u, last[:, None, :], axis=-1)[..., 0]
    return tied, projected, a_min, u_min, a_max, u_max


def _dual_witnesses(eigs: np.ndarray, vecs: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Two unit candidates ``(P, 2, m)`` from the top of the spectrum of ``K + mu J``.

    The first lies in the span of the eigenvectors tied with the top one.
    With ``a_min <= a_max`` the extreme eigenvalues of ``J`` on that span and
    ``u_min``, ``u_max`` their eigenvectors (:func:`_tied_block`), it is
    ``sqrt(-a_min) u_max + sqrt(a_max) u_min``: J-isotropic when ``a_min <=
    0 <= a_max``, else the eigenvector of the smaller ``|a|``.  The second
    adds the least multiple of the highest untied eigenvector ``w`` that
    makes it J-isotropic, which removes the multiplier's share ``mu x^T J x``
    that an inexact ``mu`` leaves on a simple top eigenvector.
    """
    tied, _, a_min, u_min, a_max, u_max = _tied_block(eigs, vecs, j)
    y = (np.sqrt(np.maximum(-a_min, 0.0))[:, None] * u_max
         + np.sqrt(np.maximum(a_max, 0.0))[:, None] * u_min)
    # J vanishes on the span: any vector of it is isotropic
    y = np.where(np.any(y != 0.0, axis=-1, keepdims=True), y, u_max)
    x = np.einsum("...ij,...j->...i", vecs, y)
    x /= np.linalg.norm(x, axis=-1, keepdims=True)

    # the smaller root s of (x + s w)^T J (x + s w) = a + 2 c s + b s^2 = 0
    below = np.sum(~tied, axis=-1) - 1
    w = np.take_along_axis(vecs, np.maximum(below, 0)[:, None, None], axis=-1)[..., 0]
    a = np.einsum("...i,ij,...j->...", x, j, x)
    b = np.einsum("...i,ij,...j->...", w, j, w)
    c = np.einsum("...i,ij,...j->...", x, j, w)
    disc = c * c - a * b
    root = c + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c)
    solvable = (below >= 0) & (disc >= 0.0) & (root != 0.0)
    s = np.where(solvable, -a / np.where(solvable, root, 1.0), 0.0)
    moved = x + s[:, None] * w
    moved /= np.linalg.norm(moved, axis=-1, keepdims=True)
    return np.stack([x, moved], axis=1)


def _dual_bound(tensor: np.ndarray, kind: str, free: bool,
                points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lagrangian dual bound of the sup or inf of ``x^T K x / x^T x`` at every point.

    ``tensor`` is ``(P, n, n, n, n)`` at ``points`` ``(P, n)``; a form that is not finite is
    a :class:`NumericalError` naming its point.  The multiplier ranges over the reals
    if ``free`` (rank-one forms) and over ``mu >= 0`` otherwise (PSD forms).
    ``phi(mu) = lambda_max(K + mu J)`` is convex and its minimum lies in
    ``|mu| <= 2 (lambda_max(K) - lambda_min(K))``: beyond it ``phi`` exceeds
    ``phi(0)``, as ``J`` has eigenvalues ``(n - 1)/2 >= 1/2`` and ``-1/2``.

    A safeguarded Newton search (Overton, SIAM J. Matrix Anal. Appl. 9
    (1988)) shrinks that bracket from ``mu = 0``, one ``eigh`` of the live
    points per step.  The subdifferential of ``phi`` is ``J`` on the tied
    top eigenspace (:func:`_tied_block`); at a simple top eigenvector ``v``
    it is the slope ``s = v^T J v``, and ``phi'' = 2 sum_i (v_i^T J v)^2 /
    (lambda_top - lambda_i)`` over the untied eigenvectors ``v_i``.  The
    next trial is the Newton step ``-s / phi''`` if it lands inside the
    bracket and at most halves the previous one, else the crossing of the
    tangents at the bracket's ends, else the midpoint.  A point stops where
    0 is a subgradient, where its Newton step is below ``2^-40`` of the
    bracket's width, where the bracket has shrunk to ``2^-53`` of it (at
    once for PSD forms where ``phi`` rises from ``mu = 0``), or after 53
    evaluations, and leaves the stack.

    The bound adds the eigensolver's backward error, ``n^2 eps`` times the
    larger of ``||K||_2`` and ``||K + mu J||_2``, and is sound for whatever
    ``mu`` the search ends at.  An inf is minus the sup of ``-K``.  Returns
    the bounds ``(P,)`` and two candidate witnesses per point, unit
    coordinate vectors ``(P, 2, n*n)`` (:func:`_dual_witnesses`), both from
    the last evaluation.
    """
    sign = 1.0 if kind == "sup" else -1.0
    k = sign * _quadratic_forms(tensor)
    count, m = k.shape[:2]
    j = _minor_form(tensor.shape[-1])
    # eigh fails or lies on forms that are not finite
    what = "holomorphic sectional" if free else "real bisectional"
    unfinite = f"the {what} curvature quadratic form is not finite at {{}}"
    require(np.isfinite(k).all((-2, -1)), NumericalError, unfinite, points)
    spectrum = np.linalg.eigvalsh(k)
    eigs = np.empty((count, m))
    vecs = np.empty((count, m, m))

    # per live point: its row, mu, and (mu, phi, slope towards the inside) at
    # the low and high end of the bracket, phi and slope nan until evaluated
    rows = np.arange(count)
    mu = np.zeros(count)
    reach = 2.0 * (spectrum[:, -1] - spectrum[:, 0])
    ends = np.full((count, 2, 3), math.nan)
    ends[:, 0, 0] = -reach if free else 0.0
    ends[:, 1, 0] = reach
    width = ends[:, 1, 0] - ends[:, 0, 0]
    last_newton = np.full(count, math.inf)
    for _ in range(_EVALUATIONS):
        forms = k + mu[:, None, None] * j
        require(np.isfinite(forms).all((-2, -1)), NumericalError, unfinite, points[rows])
        e, v = np.linalg.eigh(forms)
        eigs[rows], vecs[rows] = e, v
        tied, projected, a_min, _, a_max, _ = _tied_block(e, v, j)
        optimal = (a_min <= 0.0) & (a_max >= 0.0)
        # the tied terms of phi'' drop out rather than divide by 0
        gaps = np.where(tied, math.inf, e[:, -1:] - e)
        curvature = 2.0 * (projected[:, :, -1] ** 2 / gaps).sum(axis=-1)
        newton = (tied.sum(axis=-1) == 1) & (curvature > 0.0)
        step = -a_max / np.where(newton, curvature, 1.0)
        converged = newton & (np.abs(step) <= _NEWTON_STOP * width)

        # a rising phi moves the high end here, a falling one the low end; for
        # PSD forms phi rising at mu = 0 closes the bracket there
        rising = a_min > 0.0
        here = np.arange(len(rows))
        ends[here, rising.astype(int)] = np.stack(
            [mu, e[:, -1], np.where(rising, a_min, a_max)], axis=-1
        )
        going = ~(optimal | converged | (ends[:, 1, 0] - ends[:, 0, 0] <= _RESOLUTION * width))
        if not going.all():
            rows, k, mu, step, newton = rows[going], k[going], mu[going], step[going], newton[going]
            ends, width, last_newton = ends[going], width[going], last_newton[going]
            if rows.size == 0:
                break

        low, high = ends[:, 0, 0], ends[:, 1, 0]
        trial = mu + step
        accept = newton & (np.abs(step) <= 0.5 * last_newton) & (low < trial) & (trial < high)
        last_newton = np.where(newton, np.abs(step), last_newton)
        # once both ends are evaluated their slopes have opposite signs
        intercept = ends[:, :, 1] - ends[:, :, 2] * ends[:, :, 0]
        crossing = (intercept[:, 1] - intercept[:, 0]) / (ends[:, 0, 2] - ends[:, 1, 2])
        inside = (low < crossing) & (crossing < high)
        mu = np.where(accept, trial, np.where(inside, crossing, 0.5 * (low + high)))
    norm = np.maximum(np.abs(spectrum).max(-1), np.abs(eigs).max(-1))
    bound = eigs[:, -1] + m * np.finfo(float).eps * norm
    return sign * bound, _dual_witnesses(eigs, vecs, j)


def _check_extremizer(kind: str, starts: int, steps: int) -> None:
    if kind not in ("sup", "inf"):
        raise ConfigError(f"extremizer kind must be 'sup' or 'inf', got '{kind}'")
    if starts < 1:
        raise ConfigError(f"the ascent needs at least one start, got {starts}")
    if steps < 0:
        raise ConfigError(f"ascent steps must be nonnegative, got {steps}")


def _certify(
    objective: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    draw_start: Callable[[np.random.Generator], np.ndarray],
    witness: Callable[[np.ndarray], np.ndarray],
    dual_start: np.ndarray,
    bound: np.ndarray,
    kind: str,
    seed: int,
    starts: int,
    steps: int,
) -> list[BoundCertificate]:
    """Score each point's dual witness with the seeded starts; ascend where a gap stays open.

    ``objective(params, owner)`` returns ``(values, keep)`` for rows at the
    points ``owner``: values for the rows ``keep`` selects; the other rows
    are outside the domain and score worst.  Every point gets the same
    draws.  The first rows of a point are its dual witnesses
    ``dual_start`` ``(P, R, dim)``, the next ``starts`` its starts; the best
    row wins, ties going to the lowest.
    """
    maximize = kind == "sup"
    sign = 1.0 if maximize else -1.0

    def scored(params: np.ndarray, owner: np.ndarray) -> np.ndarray:
        values, keep = objective(params, owner)
        full = np.full(len(params), -sign * math.inf)
        full[keep] = values
        return full

    count, duals, dim = dual_start.shape
    rng = np.random.default_rng(seed)
    initial = np.array([draw_start(rng) for _ in range(starts)])
    params = np.concatenate(
        [dual_start, np.broadcast_to(initial, (count, starts, dim))], axis=1
    )
    owner = np.repeat(np.arange(count), duals + starts)
    values = scored(params.reshape(-1, dim), owner).reshape(count, duals + starts)
    accepted = np.zeros((count, starts), dtype=int)
    best = sign * np.max(sign * values, axis=1)
    open_gap = np.flatnonzero(sign * (bound - best) > _TOLERANCE * np.maximum(1.0, np.abs(best)))
    if open_gap.size:
        ends, end_values, counts = _ascend(
            scored, params[open_gap, duals:].reshape(-1, dim), np.repeat(open_gap, starts),
            maximize, steps,
        )
        params[open_gap, duals:] = ends.reshape(-1, starts, dim)
        values[open_gap, duals:] = end_values.reshape(-1, starts)
        accepted[open_gap] = counts.reshape(-1, starts)
    rows = np.arange(count)
    pick = np.argmax(sign * values, axis=1)
    value = values[rows, pick]
    witnesses = witness(params[rows, pick])
    return [
        BoundCertificate(
            kind=kind,
            value=float(value[p]),
            witness=witnesses[p],
            samples=starts,
            ascent_iterations=int(accepted[p].sum()),
            tolerance=_TOLERANCE,
            bound=float(bound[p]),
            gap=float(sign * (bound[p] - value[p])),
        )
        for p in range(count)
    ]


def _stack(tensor: np.ndarray) -> np.ndarray:
    """A four-slot tensor with any batch axes as ``(P, n, n, n, n)``."""
    return tensor.reshape((-1,) + tensor.shape[-4:])


def hsc_certificates(
    point: ChernPoint,
    kind: str,
    seed: int = 0,
    starts: int = 64,
    steps: int = 200,
) -> list[BoundCertificate]:
    """Certificates of the sup or inf of HSC over unit vectors, one per point.

    ``point`` may carry batch axes; the certificates follow them in C
    order.  The dual over rank-one forms gives the bound and a witness: the
    eigenvector of largest magnitude of the form the dual returns.  Where a
    gap stays open the vector is parametrised by its ``2n`` real components
    and ascended; the functional is scale invariant, so the ascent wanders
    freely and the witness is normalised at the end.
    """
    _check_extremizer(kind, starts, steps)
    r = _stack(point.curvature_frame)
    n = r.shape[-1]

    def unpack(params: np.ndarray) -> np.ndarray:
        zeta = params[..., :n] + 1j * params[..., n:]
        return zeta / np.linalg.norm(zeta, axis=-1, keepdims=True)

    def objective(params: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keep = np.linalg.norm(params, axis=1) >= 1e-12
        forms = _rank_one(unpack(params[keep]))[:, None]
        values = _form_values(r[owner[keep]], forms, "holomorphic sectional curvature")
        return values[:, 0], keep

    def draw(rng: np.random.Generator) -> np.ndarray:
        raw = rng.normal(size=2 * n)
        return raw / np.linalg.norm(raw)

    with np.errstate(over="ignore", invalid="ignore"):  # a form that overflows is named
        bound, x = _dual_bound(r, kind, True, point.point.reshape(-1, n))
    eigs, vecs = np.linalg.eigh(np.tensordot(x, _hermitian_basis(n), axes=1))
    largest = np.argmax(np.abs(eigs), axis=-1)[..., None, None]
    zeta = np.take_along_axis(vecs, largest, axis=-1)[..., 0]
    start = np.concatenate([zeta.real, zeta.imag], axis=-1)
    return _certify(objective, draw, unpack, start, bound, kind, seed, starts, steps)


def extremize_hsc(
    point: ChernPoint,
    kind: str,
    seed: int = 0,
    starts: int = 64,
    steps: int = 200,
) -> BoundCertificate:
    """The certificate of :func:`hsc_certificates` at a single point."""
    (cert,) = hsc_certificates(point, kind, seed, starts, steps)
    return cert


def rbc_certificates(
    point: ChernPoint,
    tau: TauParam,
    kind: str,
    seed: int = 0,
    starts: int = 64,
    steps: int = 200,
) -> list[BoundCertificate]:
    """Certificates of the sup or inf of ``RBC^tau`` over unit-norm PSD forms, one per point.

    ``point`` may carry batch axes, as in :func:`hsc_certificates`.  The
    dual over forms with ``e2 >= 0`` gives the bound and a witness, signed to
    a nonnegative trace.  Where a gap stays open the ascent's iterate lives in
    the real vector space of Hermitian matrices; every evaluation projects
    onto the positive semidefinite shell first, so the reported witness is
    always a valid form.
    """
    _check_extremizer(kind, starts, steps)
    with np.errstate(over="ignore", invalid="ignore"):  # a form that overflows is named
        tensor = _stack(_tempered_tensor(point, tau))
        n = tensor.shape[-1]
        bound, x = _dual_bound(tensor, kind, False, point.point.reshape(-1, n))
    basis = _hermitian_basis(n)

    def unpack(params: np.ndarray) -> np.ndarray:
        return np.tensordot(params, basis, axes=1)

    def objective(params: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = unpack(params)
        # a collapsed projection (no positive part) is masked, never raised
        forms, keep = psd_project_batch(m)
        keep &= np.linalg.norm(m, axis=(1, 2)) >= 1e-12
        values = _form_values(tensor[owner[keep]], forms[keep][:, None],
                              "real bisectional curvature")
        return values[:, 0], keep

    def draw(rng: np.random.Generator) -> np.ndarray:
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = hermitian_part(raw @ raw.conj().T)
        coeffs = np.array([float(np.real(np.sum(h * np.conj(e)))) for e in basis])
        return coeffs / np.linalg.norm(coeffs)

    def witness(params: np.ndarray) -> np.ndarray:
        forms, ok = psd_project_batch(unpack(params))
        if not ok.all():
            raise NumericalError("projection collapsed to zero: no positive part")
        return forms

    # the diagonal coordinates come first: their sum is the trace
    start = np.where(x[..., :n].sum(axis=-1, keepdims=True) < 0.0, -x, x)
    return _certify(objective, draw, witness, start, bound, kind, seed, starts, steps)


def extremize_rbc(
    point: ChernPoint,
    tau: TauParam,
    kind: str,
    seed: int = 0,
    starts: int = 64,
    steps: int = 200,
) -> BoundCertificate:
    """The certificate of :func:`rbc_certificates` at a single point."""
    (cert,) = rbc_certificates(point, tau, kind, seed, starts, steps)
    return cert
