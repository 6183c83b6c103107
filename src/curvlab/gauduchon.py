"""The one-parameter family of canonical Hermitian connections.

For a parameter ``t`` the family member has torsion ``t T`` and curvature

    tR = t R + s (R[k,j,i,l] + R[i,l,k,j]) + s^2 (TTA - TTB),   s = (1 - t)/2,

where ``R``, ``T`` are the Chern tensors in a unitary frame and

    TTA[i,j,k,l] = sum_r T[i,k,r] conj(T[j,l,r]),
    TTB[i,j,k,l] = sum_r T[i,r,l] conj(T[j,r,k]).

``t = 1`` is the Chern connection itself and ``t = -1`` the Bismut one.
The transform is invertible away from ``t = 0`` and ``t = 1/2``; the inverse
is a closed seven-term expression in ``(tR, tT)`` implemented in
:func:`chern_from_family`.

Everything here works on frame tensors.  Chart-level questions should pass
through :class:`~curvlab.chern.ChernPoint` first.  :func:`gauduchon_family`
and :func:`chern_from_family` act on any leading batch axes: a batched
``ChernPoint`` gives family tensors with the same axes, one point per index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chern import ChernPoint
from .errors import ConfigError
from .functionals import TauParam, _real
from .tensor_core import hermitian_part

__all__ = [
    "ConnectionTensors",
    "gauduchon_family",
    "chern_from_family",
    "family_ricci_traces",
    "ric_tau_from_family",
    "rbc_tau_from_family",
]


@dataclass(frozen=True)
class ConnectionTensors:
    """Torsion and curvature of one family member in a unitary frame."""

    t: float
    torsion: np.ndarray
    curvature: np.ndarray


def _check_parameter(t: float) -> None:
    if t == 0.0 or t == 0.5:
        raise ConfigError(f"family transform degenerates at t = {t}")


def gauduchon_family(point: ChernPoint, t: float) -> ConnectionTensors:
    """Torsion and curvature of the parameter-``t`` connection at a point."""
    ct = point.torsion_frame
    cr = point.curvature_frame
    if t == 1.0:
        return ConnectionTensors(1.0, ct.copy(), cr.copy())
    s = (1.0 - t) / 2.0
    tta = np.einsum("...ikr,...jlr->...ijkl", ct, np.conj(ct))
    ttb = np.einsum("...irl,...jrk->...ijkl", ct, np.conj(ct))
    curvature = (
        t * cr
        + s * (np.swapaxes(cr, -4, -2) + np.swapaxes(cr, -3, -1))
        + s * s * (tta - ttb)
    )
    return ConnectionTensors(t, t * ct, curvature)


def chern_from_family(tensors: ConnectionTensors) -> tuple[np.ndarray, np.ndarray]:
    """Recover the Chern torsion and curvature from one family member.

    Inverts :func:`gauduchon_family` in closed form.  Raises
    :class:`~curvlab.errors.ConfigError` at the degenerate parameters
    ``t = 0`` and ``t = 1/2``.
    """
    t = tensors.t
    _check_parameter(t)
    tt = tensors.torsion
    tr = tensors.curvature
    if t == 1.0:
        return tt.copy(), tr.copy()

    den = 2.0 * t * (2.0 * t - 1.0)
    u = t - 1.0
    a1 = (t * t + 2.0 * t - 1.0) / den
    a2 = u * u / den
    a3 = u / (2.0 * (2.0 * t - 1.0))
    q1 = -(u * u) / (4.0 * t * t * (2.0 * t - 1.0))
    q2 = u * u * (t * t + 2.0 * t - 1.0) / (8.0 * t**3 * (2.0 * t - 1.0))
    q3 = u**4 / (8.0 * t**3 * (2.0 * t - 1.0))
    q4 = u**3 / (8.0 * t * t * (2.0 * t - 1.0))

    conj_tt = np.conj(tt)
    swapped = np.swapaxes(tr, -4, -2)
    curvature = (
        a1 * tr
        + a2 * np.swapaxes(swapped, -3, -1)
        + a3 * (swapped + np.swapaxes(tr, -3, -1))
        + q1 * np.einsum("...ikr,...jlr->...ijkl", tt, conj_tt)
        + q2 * np.einsum("...irl,...jrk->...ijkl", tt, conj_tt)
        + q3 * np.einsum("...krj,...lri->...ijkl", tt, conj_tt)
        + q4 * (
            np.einsum("...krl,...jri->...ijkl", tt, conj_tt)
            + np.einsum("...irj,...lrk->...ijkl", tt, conj_tt)
        )
    )
    return tt / t, curvature


def family_ricci_traces(tensors: ConnectionTensors) -> tuple[np.ndarray, ...]:
    """The four Ricci-type traces of a family curvature tensor."""
    tr = tensors.curvature
    return (
        np.einsum("klii->kl", tr),
        np.einsum("iikl->kl", tr),
        np.einsum("kiil->kl", tr),
        np.einsum("ilki->kl", tr),
    )


def ric_tau_from_family(tensors: ConnectionTensors, tau: TauParam) -> np.ndarray:
    """Tempered Chern Ricci assembled from family-``t`` data alone.

    The expression traces the inverse curvature transform term by term; the
    two quadratics ``sum T[i,k,r] conj(T[i,l,r])`` and
    ``sum T[k,r,i] conj(T[l,r,i])`` coincide by torsion antisymmetry, which
    folds seven curvature terms into three torsion quadratics.
    """
    t = tensors.t
    _check_parameter(t)
    tt = tensors.torsion
    conj_tt = np.conj(tt)
    trace1, trace2, trace3, trace4 = family_ricci_traces(tensors)

    den = 2.0 * t * (2.0 * t - 1.0)
    u = t - 1.0
    a1 = (t * t + 2.0 * t - 1.0) / den
    a2 = u * u / den
    a3 = u / (2.0 * (2.0 * t - 1.0))
    b1 = u * u * (t * t - 4.0 * t + 1.0) / (8.0 * t**3 * (2.0 * t - 1.0))
    b2 = u**3 / (4.0 * t * t * (2.0 * t - 1.0))
    b3 = u * u * (t * t + 2.0 * t - 1.0) / (8.0 * t**3 * (2.0 * t - 1.0))
    b3 = b3 + tau.source_weight / (t * t)

    s_a = np.einsum("ikr,ilr->kl", tt, conj_tt)
    s_c = np.einsum("irl,irk->kl", tt, conj_tt)
    eta = np.einsum("iri->r", tt)
    x = np.einsum("krl,r->kl", tt, np.conj(eta))

    return (
        a1 * trace2
        + a2 * trace1
        + a3 * (trace3 + trace4)
        + b1 * s_a
        + b2 * hermitian_part(x)
        + b3 * s_c
    )


def rbc_tau_from_family(
    tensors: ConnectionTensors, xi: np.ndarray, tau: TauParam
) -> float:
    """Tempered real bisectional curvature assembled from family-``t`` data.

    The cross term ``S3`` enters through its real part: its conjugate is the
    mirror quadratic in the inverse transform, and the pair sums to
    ``2 Re(S3)``.
    """
    t = tensors.t
    _check_parameter(t)
    entries = np.asarray(xi, dtype=complex)
    norm2 = float(np.real(np.sum(entries * np.conj(entries))))
    if norm2 == 0.0:
        raise ConfigError("real bisectional curvature needs a nonzero form")
    tt = tensors.torsion
    tr = tensors.curvature
    conj_tt = np.conj(tt)

    c1 = t / (2.0 * t - 1.0)
    c2 = (t - 1.0) / (2.0 * t - 1.0)
    u = t - 1.0
    d1 = -(u * u / (4.0 * t * t * (2.0 * t - 1.0)) + tau.target_weight / (t * t))
    d2 = u * u / (4.0 * t * (2.0 * t - 1.0))
    d3 = u**3 / (4.0 * t * t * (2.0 * t - 1.0))

    rb = np.einsum("ijkl,ij,kl->", tr, entries, entries)
    rb_alt = np.einsum("ilkj,ij,kl->", tr, entries, entries)
    s1 = np.einsum("ikr,jlr,ij,kl->", tt, conj_tt, entries, entries)
    s2 = np.einsum("irl,jrk,ij,kl->", tt, conj_tt, entries, entries)
    s3 = np.einsum("irj,lrk,ij,kl->", tt, conj_tt, entries, entries)

    value = (
        _real(complex(rb), "family bisectional term") * c1
        + _real(complex(rb_alt), "family swapped term") * c2
        + _real(complex(s1), "family torsion square") * d1
        + _real(complex(s2), "family torsion square") * d2
        + float(np.real(s3)) * d3
    )
    return value / norm2
