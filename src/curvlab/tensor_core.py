"""Dense complex tensors with variance-tagged slots and unitary frame changes.

Conventions used throughout the package, with n the complex dimension and all
arrays of dtype complex128:

* a Hermitian metric in a chart is the matrix ``G[k, l] = g_{k lbar}``,
* its inverse-with-raised-indices is ``X[p, q] = g^{p qbar}``, the entries of
  ``conj(inv(G))``, so that ``sum_q X[p, q] G[k, q] = delta_{pk}`` and
  ``sum_p X[p, q] G[p, l] = delta_{ql}``,
* torsion is stored as ``T[i, j, k] = T^k_{ij}`` and curvature as
  ``R[i, j, k, l] = R_{i jbar k lbar}``.

A unitary frame is obtained from the Cholesky factorisation ``G = L L^H`` via
``e_a = sum_k inv(L)[a, k] d/dz^k``.  Every slot of a tensor transforms by one
matrix determined by its variance; the table lives in :class:`UnitaryFrame`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericalError

__all__ = [
    "Variance",
    "ComplexTensor",
    "HermitianMatrix",
    "PSDForm",
    "UnitaryFrame",
    "contract",
    "conjugate",
    "hermitian_part",
    "metric_inverse_up",
    "psd_project",
    "psd_project_batch",
    "HERMITIAN_TOL",
]

HERMITIAN_TOL = 1e-12

_EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class Variance(Enum):
    """Variance tag of one tensor slot."""

    HOLO_UP = "holo_up"
    HOLO_DOWN = "holo_down"
    ANTI_UP = "anti_up"
    ANTI_DOWN = "anti_down"

    @property
    def conjugate(self) -> "Variance":
        return {
            Variance.HOLO_UP: Variance.ANTI_UP,
            Variance.HOLO_DOWN: Variance.ANTI_DOWN,
            Variance.ANTI_UP: Variance.HOLO_UP,
            Variance.ANTI_DOWN: Variance.HOLO_DOWN,
        }[self]

    @property
    def is_up(self) -> bool:
        return self in (Variance.HOLO_UP, Variance.ANTI_UP)


def _pairable(a: Variance, b: Variance) -> bool:
    pair = {a, b}
    return pair == {Variance.HOLO_UP, Variance.HOLO_DOWN} or pair == {
        Variance.ANTI_UP,
        Variance.ANTI_DOWN,
    }


@dataclass(frozen=True)
class ComplexTensor:
    """A dense complex array together with one variance tag per axis."""

    entries: np.ndarray
    slots: tuple[Variance, ...]

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != len(self.slots):
            raise ConfigError(
                f"tensor has {entries.ndim} axes but {len(self.slots)} slots"
            )

    @property
    def rank(self) -> int:
        return self.entries.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.entries.shape


def contract(
    a: ComplexTensor, b: ComplexTensor, pairs: Sequence[tuple[int, int]]
) -> ComplexTensor:
    """Contract slot pairs ``(i, j)`` of ``a`` against ``b``.

    Each pair must join an up slot to a down slot of the same holomorphic
    type; contractions across types, or up-with-up, need an explicit metric
    factor and are rejected.

    Returns
    -------
    ComplexTensor
        Output slots are the unpaired slots of ``a`` followed by those of
        ``b``, in their original order.
    """
    for i, j in pairs:
        if a.shape[i] != b.shape[j]:
            raise ConfigError(
                f"dimension mismatch on pair ({i}, {j}): {a.shape[i]} vs {b.shape[j]}"
            )
        if not _pairable(a.slots[i], b.slots[j]):
            raise ConfigError(
                f"variance mismatch on pair ({i}, {j}): "
                f"{a.slots[i].value} against {b.slots[j].value}"
            )
    if a.rank + b.rank > len(_EINSUM_LETTERS):
        raise ConfigError("combined rank too large to contract")

    letters_a = list(_EINSUM_LETTERS[: a.rank])
    letters_b = list(_EINSUM_LETTERS[a.rank : a.rank + b.rank])
    for i, j in pairs:
        letters_b[j] = letters_a[i]
    paired_a = {i for i, _ in pairs}
    paired_b = {j for _, j in pairs}
    out = [letters_a[i] for i in range(a.rank) if i not in paired_a]
    out += [letters_b[j] for j in range(b.rank) if j not in paired_b]
    script = f"{''.join(letters_a)},{''.join(letters_b)}->{''.join(out)}"
    entries = np.einsum(script, a.entries, b.entries, optimize=True)
    slots = tuple(a.slots[i] for i in range(a.rank) if i not in paired_a) + tuple(
        b.slots[j] for j in range(b.rank) if j not in paired_b
    )
    return ComplexTensor(entries, slots)


def conjugate(a: ComplexTensor) -> ComplexTensor:
    """Complex conjugate; every slot swaps its holomorphic type."""
    return ComplexTensor(np.conj(a.entries), tuple(s.conjugate for s in a.slots))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """The Hermitian completion ``(m + m^H) / 2`` over the last two axes."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + np.conj(np.swapaxes(m, -2, -1)))


@dataclass(frozen=True)
class HermitianMatrix:
    """A square complex matrix validated to be Hermitian.

    Entries satisfy ``entries[k, l] == conj(entries[l, k])`` up to
    ``HERMITIAN_TOL`` relative to the largest entry.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ConfigError(f"expected a square matrix, got shape {entries.shape}")
        scale = max(1.0, float(np.max(np.abs(entries))))
        deviation = float(np.max(np.abs(entries - entries.conj().T)))
        if deviation > HERMITIAN_TOL * scale:
            raise ConfigError(
                f"matrix is not Hermitian: deviation {deviation:.3e} at scale {scale:.3e}"
            )

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])

    def is_positive_definite(self) -> bool:
        return self.min_eigenvalue() > 0.0


def metric_inverse_up(g: np.ndarray) -> np.ndarray:
    """Raised-index inverse ``X[p, q] = g^{p qbar}`` of the metric matrix.

    ``X = conj(inv(G))``; for Hermitian ``G`` this equals ``inv(G).T``.
    """
    g = np.asarray(g, dtype=complex)
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"metric matrix is singular: {exc}") from exc
    return np.conj(inv)


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
    min_eig = float(np.linalg.eigvalsh(entries)[..., 0].min())
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


@dataclass(frozen=True)
class UnitaryFrame:
    """Frame change built from the Cholesky factor ``L`` of ``G = L L^H``.

    The frame vectors are ``e_a = sum_k inv(L)[a, k] d/dz^k``, so the metric
    becomes the identity in the frame.  Each slot of a tensor transforms as
    ``new[a] = sum_k M[a, k] old[k]`` with ``M`` read off the variance:

    ==============  ================  ================
    slot            chart to frame    frame to chart
    ==============  ================  ================
    HOLO_DOWN       inv(L)            L
    ANTI_DOWN       conj(inv(L))      conj(L)
    HOLO_UP         L.T               inv(L).T
    ANTI_UP         conj(L.T)         conj(inv(L).T)
    ==============  ================  ================
    """

    L: np.ndarray
    L_inv: np.ndarray

    @classmethod
    def from_metric(cls, g: np.ndarray) -> "UnitaryFrame":
        g = np.asarray(g, dtype=complex)
        try:
            L = np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"metric is not positive definite at this point: {exc}"
            ) from exc
        L_inv = np.linalg.solve(L, np.eye(g.shape[0], dtype=complex))
        return cls(L, L_inv)

    @property
    def n(self) -> int:
        return self.L.shape[0]

    def _slot_matrix(self, slot: Variance, to_frame: bool) -> np.ndarray:
        if to_frame:
            table = {
                Variance.HOLO_DOWN: self.L_inv,
                Variance.ANTI_DOWN: np.conj(self.L_inv),
                Variance.HOLO_UP: self.L.T,
                Variance.ANTI_UP: np.conj(self.L.T),
            }
        else:
            table = {
                Variance.HOLO_DOWN: self.L,
                Variance.ANTI_DOWN: np.conj(self.L),
                Variance.HOLO_UP: self.L_inv.T,
                Variance.ANTI_UP: np.conj(self.L_inv.T),
            }
        return table[slot]

    def _apply(self, tensor: ComplexTensor, to_frame: bool) -> ComplexTensor:
        rank = tensor.rank
        if 2 * rank + rank > len(_EINSUM_LETTERS):
            raise ConfigError("rank too large for frame transform")
        old = _EINSUM_LETTERS[:rank]
        new = _EINSUM_LETTERS[rank : 2 * rank]
        operands: list[np.ndarray] = []
        terms: list[str] = []
        for axis, slot in enumerate(tensor.slots):
            operands.append(self._slot_matrix(slot, to_frame))
            terms.append(new[axis] + old[axis])
        script = ",".join(terms + [old]) + "->" + new
        entries = np.einsum(script, *operands, tensor.entries, optimize=True)
        return ComplexTensor(entries, tensor.slots)

    def to_frame(self, tensor: ComplexTensor) -> ComplexTensor:
        """Express a chart tensor in the unitary frame."""
        return self._apply(tensor, to_frame=True)

    def to_chart(self, tensor: ComplexTensor) -> ComplexTensor:
        """Express a frame tensor back in chart coordinates."""
        return self._apply(tensor, to_frame=False)
