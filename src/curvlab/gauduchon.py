"""The one-parameter family of canonical Hermitian connections.

For a parameter ``t`` the family member has torsion ``t T`` and curvature

    tR = t R + s (R^13 + R^24) + s^2 (TTA - TTB),   s = (1 - t)/2,

where ``R``, ``T`` are the Chern tensors in a unitary frame, the swaps are
``R^13[i,j,k,l] = R[k,j,i,l]`` and ``R^24[i,j,k,l] = R[i,l,k,j]``, and

    TTA[i,j,k,l] = sum_r T[i,k,r] conj(T[j,l,r]),
    TTB[i,j,k,l] = sum_r T[i,r,l] conj(T[j,r,k]).

``t = 1`` is the Chern connection itself and ``t = -1`` the Bismut one.
The transform is invertible away from ``t = 0`` and ``t = 1/2``; the inverse
in :func:`chern_from_family` is the same two products and swaps of
``(tR, tT)`` with other weights, and the tempered displays trace it or pair
it with a form, so all three share those weights.

Everything here works on frame tensors, built from the four-slot algebra of
:mod:`curvlab.chern`.  Chart-level questions should pass through
:class:`~curvlab.chern.ChernPoint` first.  Every function acts on any leading
batch axes: a batched ``ChernPoint`` gives family tensors, traces and
displays with the same axes, one point per index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chern import (ChernPoint, form_pairing, frame_traces, swap13, swap24, torsion_product_a,
                    torsion_product_b)
from .errors import ConfigError, NumericalError, require
from .functionals import TauParam, real_part
from .tensor_core import hermitian_part

__all__ = [
    "ConnectionTensors",
    "gauduchon_family",
    "chern_from_family",
    "ricci_display",
    "ric_tau_from_family",
    "bisectional_display",
    "rbc_tau_from_family",
]


@dataclass(frozen=True)
class ConnectionTensors:
    """Torsion and curvature of one family member in a unitary frame, at one point or a stack."""

    t: float
    torsion: np.ndarray
    curvature: np.ndarray


def _inverse_weights(t: float) -> tuple[float, ...]:
    """Weights ``(a1, a2, a3, q1, q2, q3, q4)`` of the inverse transform at ``t``.

    ``R = a1 tR + a2 tR^1324 + a3 (tR^13 + tR^24) + q1 TTA + q2 TTB + q3 TTB^1324
    + q4 (TTB^13 + TTB^24)``, the products built from ``tT``.  Raises
    :class:`~curvlab.errors.ConfigError` at the poles ``t = 0`` and ``t = 1/2``,
    and :class:`~curvlab.errors.NumericalError` where a weight is not finite.
    """
    if not np.isfinite(t):
        raise ConfigError(f"family parameter must be finite, got {t}")
    if t == 0.0 or t == 0.5:
        raise ConfigError(f"family transform degenerates at t = {t}")
    try:
        den = 2.0 * t * (2.0 * t - 1.0)
        u = t - 1.0
        a1, a2, a3 = (t * t + 2.0 * t - 1.0) / den, u * u / den, u / (2.0 * (2.0 * t - 1.0))
        q1 = -(u * u) / (4.0 * t * t * (2.0 * t - 1.0))
        q2 = u * u * (t * t + 2.0 * t - 1.0) / (8.0 * t**3 * (2.0 * t - 1.0))
        q3 = u**4 / (8.0 * t**3 * (2.0 * t - 1.0))
        q4 = u**3 / (8.0 * t * t * (2.0 * t - 1.0))
        weights = (a1, a2, a3, q1, q2, q3, q4)
        if np.isfinite(weights).all():
            return weights
    except ArithmeticError:  # t**3 overflows, or a denominator underflows to zero
        pass
    raise NumericalError(f"the inverse family weights are not finite at t = {t}")


def gauduchon_family(point: ChernPoint, t: float) -> ConnectionTensors:
    """Torsion and curvature of the parameter-``t`` connection, from the record's family terms."""
    if not np.isfinite(t):
        raise ConfigError(f"family parameter must be finite, got {t}")
    ct, cr = point.torsion_frame, point.curvature_frame
    if t == 1.0:
        return ConnectionTensors(1.0, ct.copy(), cr.copy())
    s = (1.0 - t) / 2.0
    swaps, products = point.family_terms
    with np.errstate(over="ignore", invalid="ignore"):
        curvature = t * cr + s * swaps + s * s * products
        torsion = t * ct
    require(np.isfinite(curvature).all((-4, -3, -2, -1)) & np.isfinite(torsion).all((-3, -2, -1)),
            NumericalError, "the family member at t = {} is not finite at {}", t, point.point)
    return ConnectionTensors(t, torsion, curvature)


def chern_from_family(tensors: ConnectionTensors) -> tuple[np.ndarray, np.ndarray]:
    """Recover the Chern torsion and curvature from one family member.

    Inverts :func:`gauduchon_family` in closed form.  Raises
    :class:`~curvlab.errors.ConfigError` at the degenerate parameters
    ``t = 0`` and ``t = 1/2``.
    """
    a1, a2, a3, q1, q2, q3, q4 = _inverse_weights(tensors.t)
    tt, tr = tensors.torsion, tensors.curvature
    if tensors.t == 1.0:
        return tt.copy(), tr.copy()

    swapped = swap13(tr)
    ttb = torsion_product_b(tt)
    curvature = (
        a1 * tr
        + a2 * swap24(swapped)
        + a3 * (swapped + swap24(tr))
        + q1 * torsion_product_a(tt)
        + q2 * ttb
        + q3 * swap13(swap24(ttb))
        + q4 * (swap13(ttb) + swap24(ttb))
    )
    return tt / tensors.t, curvature


def ricci_display(tensors: ConnectionTensors, weights: tuple[float, ...]) -> np.ndarray:
    """``w1 Ric2 + w2 Ric1 + w3 (Ric3 + Ric4) + w4 S_a + w5 (X + X^H)/2 + w6 S_c`` of a member.

    ``Ric1..Ric4`` are the traces of ``tR``; ``S_a[k, l] = sum T[i,k,r]
    conj(T[i,l,r])`` and ``S_c[k, l] = sum T[i,r,l] conj(T[i,r,k])`` are the
    second traces of ``TTA`` and ``TTB``, and ``X[k, l] = sum T[k,r,l]
    conj(eta[r])``, with ``eta[r] = sum T[i,r,i]``, is the third trace of ``TTB``.
    """
    w1, w2, w3, w4, w5, w6 = weights
    trace1, trace2, trace3, trace4 = frame_traces(tensors.curvature)
    ttb = frame_traces(torsion_product_b(tensors.torsion))
    s_a = frame_traces(torsion_product_a(tensors.torsion)).ric2
    return (w1 * trace2 + w2 * trace1 + w3 * (trace3 + trace4) + w4 * s_a
            + w5 * hermitian_part(ttb.ric3) + w6 * ttb.ric2)


def ric_tau_from_family(tensors: ConnectionTensors, tau: TauParam) -> np.ndarray:
    """Tempered Chern Ricci assembled from family-``t`` data alone.

    The second trace of the inverse transform, term by term, plus the
    tempered square of the torsion ``tT / t``.  ``TTB^1324`` traces to ``S_a``
    by torsion antisymmetry and ``TTB^13 + TTB^24`` to ``X + X^H``, which
    folds seven curvature terms into the three torsion quadratics of
    :func:`ricci_display`.
    """
    t = tensors.t
    a1, a2, a3, q1, q2, q3, q4 = _inverse_weights(t)
    weights = (a1, a2, a3, q1 + q3, 2.0 * q4, q2 + tau.source_weight / (t * t))
    return ricci_display(tensors, weights)


def bisectional_display(
    tensors: ConnectionTensors, xi: np.ndarray, weights: tuple[float, ...]
) -> np.ndarray:
    """``(w1 Rb + w2 Rb' + w3 S1 + w4 S2 + w5 Re S3) / |xi|^2`` of each member and its ``xi``.

    The terms pair ``tR``, ``tR^24``, ``TTA``, ``TTB`` and ``TTB^24`` with
    ``xi (x) xi``; ``xi`` ``(..., n, n)`` carries the members' batch axes.
    One value per point, a numpy float for a single point; ConfigError unless
    it is real.
    """
    tt, tr = tensors.torsion, tensors.curvature
    form = np.asarray(xi, dtype=complex)[..., None, :, :]
    norm2 = np.real(np.sum(form * np.conj(form), axis=(-3, -2, -1)))
    if np.any(norm2 == 0.0):
        raise ConfigError("real bisectional curvature needs a nonzero form")
    ttb = torsion_product_b(tt)
    rb, rb_alt, s1, s2, s3 = (form_pairing(a, form, form)[..., 0]
                              for a in (tr, swap24(tr), torsion_product_a(tt), ttb, swap24(ttb)))
    w1, w2, w3, w4, w5 = weights
    value = w1 * rb + w2 * rb_alt + w3 * s1 + w4 * s2 + w5 * np.real(s3)
    return real_part(value, "family real bisectional curvature", norm2)


def rbc_tau_from_family(
    tensors: ConnectionTensors, xi: np.ndarray, tau: TauParam
) -> np.ndarray:
    """Tempered real bisectional curvature assembled from family-``t`` data.

    The inverse transform paired with ``xi (x) xi``: a Hermitian form pairs
    ``a^1324`` like ``a``, and ``a^13`` and ``a^24`` to complex conjugates.
    So the cross term ``S3`` enters through its real part, twice.
    """
    t = tensors.t
    a1, a2, a3, q1, q2, q3, q4 = _inverse_weights(t)
    weights = (a1 + a2, 2.0 * a3, q1 - tau.target_weight / (t * t), q2 + q3, 2.0 * q4)
    return bisectional_display(tensors, xi, weights)
