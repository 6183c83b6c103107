"""Metric inverses and eigenvalues, positive semidefinite forms and unitary frame changes.

Conventions used throughout the package, with n the complex dimension and all
arrays of dtype complex128:

* a Hermitian metric in a chart is the matrix ``G[k, l] = g_{k lbar}``,
* its inverse-with-raised-indices is ``X[p, q] = g^{p qbar}``, the entries of
  ``conj(inv(G))``, so that ``sum_q X[p, q] G[k, q] = delta_{pk}`` and
  ``sum_p X[p, q] G[p, l] = delta_{ql}``,
* torsion is stored as ``T[i, j, k] = T^k_{ij}`` and curvature as
  ``R[i, j, k, l] = R_{i jbar k lbar}``.

A unitary frame is obtained from the Cholesky factorisation ``G = L L^H`` via
``e_a = sum_k inv(L)[a, k] d/dz^k``.  Torsion and curvature are the only
tensors the package moves to a frame; :class:`UnitaryFrame` has one method
for each fixed slot pattern.  Metric inverses, Hermitian eigenvalues and
frames act on any leading batch axes ``(...)``.

The lab's metrics have n = 1 or 2 in most uses, where LAPACK's fixed cost per
matrix exceeds the arithmetic; so :func:`metric_inverse_up` and
:func:`hermitian_eigenvalues` are closed forms there, written once here, and
LAPACK for n >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

__all__ = [
    "PSDForm",
    "UnitaryFrame",
    "cholesky_factor",
    "hermitian_eigenvalues",
    "hermitian_part",
    "metric_inverse_up",
    "psd_project",
    "psd_project_batch",
]


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """The Hermitian completion ``(m + m^H) / 2`` over the last two axes."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + np.conj(np.swapaxes(m, -2, -1)))


def metric_inverse_up(g: np.ndarray) -> np.ndarray:
    """Raised-index inverse ``X[..., p, q] = g^{p qbar}`` of the metric matrices.

    ``X = conj(inv(G))``; for Hermitian ``G`` this equals ``inv(G).T``.  For
    n = 1 the inverse is ``1 / g``, bit for bit LAPACK's on a real ``g``.  For
    n = 2 it is the closed form through the Schur complement ``s = d - b c / a``
    of ``a = G[0, 0]``, which divides by ``a`` before it multiplies, so no
    product of two large or two small entries leaves the float range; a
    metric has ``a > 0``.  For n >= 3 it is LAPACK's.  An inverse that is not
    finite, as of a singular metric, is a :class:`NumericalError`.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if n == 1:
            inv = 1.0 / g
        elif n == 2:
            a, b, c, d = g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1]
            ba, ca = b / a, c / a
            s_inv = 1.0 / (d - b * ca)
            inv = np.empty_like(g)
            inv[..., 0, 0] = 1.0 / a + ba * ca * s_inv
            inv[..., 0, 1] = -ba * s_inv
            inv[..., 1, 0] = -ca * s_inv
            inv[..., 1, 1] = s_inv
        else:
            try:
                inv = np.linalg.inv(g)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"metric matrix is singular: {exc}") from exc
    if not np.isfinite(inv).all():
        raise NumericalError("metric matrix is singular: its inverse is not finite")
    return np.conj(inv)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian matrices ``m`` ``(..., n, n)`` in ascending order.

    Like ``np.linalg.eigvalsh``, it reads the diagonal's real part and the
    lower triangle.  For n = 1 the eigenvalue is the real diagonal, LAPACK's
    bits.  For n = 2, with diagonal ``a, d`` and ``c = m[1, 0]``, they are
    ``mid -+ hypot((a - d) / 2, |c|)`` about ``mid = (a + d) / 2``, within a
    few ``eps * |m|_2`` of LAPACK's.  For n >= 3 they are
    ``np.linalg.eigvalsh``'s.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[-1]
    if n > 2:
        return np.linalg.eigvalsh(m)
    if n == 1:
        return m[..., 0].real.copy()  # the one entry, with its axis
    a, d = m[..., 0, 0].real, m[..., 1, 1].real
    mid = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), np.abs(m[..., 1, 0]))
    eigenvalues = np.empty(m.shape[:-1])
    eigenvalues[..., 0] = mid - radius
    eigenvalues[..., 1] = mid + radius
    return eigenvalues


@dataclass(frozen=True)
class PSDForm:
    """A positive semidefinite Hermitian form with unit Frobenius norm.

    These are the arguments of real bisectional curvature functionals; the
    entries carry raised indices ``xi^{i jbar}``.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ConfigError(f"expected a square matrix, got shape {entries.shape}")
        _check_psd_forms(entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def rank_one(cls, zeta: np.ndarray) -> "PSDForm":
        """The unit-normalised form ``zeta zeta^H``."""
        zeta = np.asarray(zeta, dtype=complex)
        norm2 = float(np.real(np.vdot(zeta, zeta)))
        if norm2 == 0.0:
            raise ConfigError("cannot build a rank-one form from the zero vector")
        return cls(np.outer(zeta, np.conj(zeta)) / norm2)


def _check_psd_forms(entries: np.ndarray) -> None:
    """ConfigError unless every trailing ``(n, n)`` matrix passes the :class:`PSDForm` checks."""
    if entries.size == 0:
        return
    deviation = float(np.abs(entries - np.conj(np.swapaxes(entries, -2, -1))).max())
    if deviation > 1e-10:
        raise ConfigError(f"form is not Hermitian: deviation {deviation:.3e}")
    min_eig = float(hermitian_eigenvalues(entries)[..., 0].min())
    if min_eig < -1e-10:
        raise ConfigError(f"form is not positive semidefinite: min eig {min_eig:.3e}")
    norms = np.linalg.norm(entries, axis=(-2, -1)).ravel()
    worst = float(norms[np.abs(norms - 1.0).argmax()])
    if abs(worst - 1.0) > 1e-10:
        raise ConfigError(f"form must have unit Frobenius norm, got {worst:.12f}")


def _project(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`psd_project_batch` without the form checks."""
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise NumericalError("cannot project a matrix with non-finite entries")
    eigs, vecs = np.linalg.eigh(hermitian_part(m))
    clipped = (vecs * np.maximum(eigs, 0.0)[..., None, :]) @ np.conj(np.swapaxes(vecs, -2, -1))
    norm = np.linalg.norm(clipped, axis=(-2, -1))
    ok = norm > 0.0
    # a collapsed matrix is all zeros, so dividing it by one keeps it zero
    entries = hermitian_part(clipped / np.where(ok, norm, 1.0)[..., None, None])
    return entries, ok


def psd_project_batch(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project a stack ``(..., n, n)`` to the unit-Frobenius PSD cone.

    Hermitises, clips negative eigenvalues to zero, renormalises.  Returns
    ``(entries, ok)``; ``ok`` is False, and the entries zero, where the
    positive part vanishes.  Raises :class:`NumericalError` on non-finite input.
    """
    entries, ok = _project(m)
    _check_psd_forms(entries[ok])
    return entries, ok


def psd_project(m: np.ndarray) -> PSDForm:
    """One matrix projected as a :class:`PSDForm`; NumericalError if it collapses."""
    entries, ok = _project(np.asarray(m)[None])
    if not ok[0]:
        raise NumericalError("projection collapsed to zero: no positive part")
    return PSDForm(entries[0])


def cholesky_factor(g: np.ndarray) -> np.ndarray:
    """The lower factor ``L`` of ``G = L L^H`` over any batch axes.

    A metric with no factor, one not positive definite, is a :class:`NumericalError`.
    """
    try:
        return np.linalg.cholesky(np.asarray(g, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"metric is not positive definite at this point: {exc}") from exc


@dataclass(frozen=True)
class UnitaryFrame:
    """Frame change built from the Cholesky factor ``L`` of ``G = L L^H``.

    The frame vectors are ``e_a = sum_k inv(L)[a, k] d/dz^k``, so the metric
    becomes the identity in the frame.  A lower holomorphic slot transforms
    by ``inv(L)``, a lower antiholomorphic one by ``conj(inv(L))`` and an
    upper holomorphic one by ``L.T``, each as ``new[a] = sum_k M[a, k] old[k]``;
    torsion and curvature each have their own method.  ``L`` and ``L_inv``
    carry the metric's batch axes.
    """

    L: np.ndarray
    L_inv: np.ndarray

    @classmethod
    def from_metric(cls, g: np.ndarray) -> "UnitaryFrame":
        return cls.from_factor(cholesky_factor(g))

    @classmethod
    def from_factor(cls, L: np.ndarray) -> "UnitaryFrame":
        """The frame of a Cholesky factor already formed, such as ``MetricJet.cholesky``."""
        eye = np.broadcast_to(np.eye(L.shape[-1], dtype=complex), L.shape)
        return cls(L, np.linalg.solve(L, eye))

    def torsion_to_frame(self, torsion: np.ndarray) -> np.ndarray:
        """Chart torsion ``T[i, j, k]`` in the frame: its slots take ``inv(L), inv(L), L.T``."""
        a = self.L_inv
        t = np.einsum("...ai,...ijk->...ajk", a, torsion)
        t = np.einsum("...bj,...ajk->...abk", a, t)
        return np.einsum("...kc,...abk->...abc", self.L, t)

    def curvature_to_frame(self, curvature: np.ndarray) -> np.ndarray:
        """Chart curvature ``R[i, j, k, l]`` in the frame: slots ``inv(L), conj(inv(L))``, twice."""
        a = self.L_inv
        b = np.conj(a)
        r = np.einsum("...ai,...ijkl->...ajkl", a, curvature)
        r = np.einsum("...bj,...ajkl->...abkl", b, r)
        r = np.einsum("...ck,...abkl->...abcl", a, r)
        return np.einsum("...dl,...abcl->...abcd", b, r)

    def to_frame(self, torsion: np.ndarray, curvature: np.ndarray) -> tuple:
        """Both :meth:`torsion_to_frame` and :meth:`curvature_to_frame`, in that order."""
        return self.torsion_to_frame(torsion), self.curvature_to_frame(curvature)
