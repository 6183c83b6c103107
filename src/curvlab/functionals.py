"""Curvature functionals: sectional, bisectional, tempered, and extremizers.

Every functional is evaluated in the unitary frame of the point, where the
metric is the identity and norms are plain Euclidean.  Arguments:

* ``zeta``, ``nu``: nonzero frame vectors (holomorphic up indices),
* ``xi``: a positive semidefinite Hermitian form with raised indices,
  normalised to unit Frobenius norm (:class:`~curvlab.tensor_core.PSDForm`).

The tempering parameter ``tau`` interpolates the torsion correction.  On the
target side (real bisectional curvature) the correction weight is
``(1 - tau) / 4`` and ``tau`` ranges over ``[0, inf)``; on the source side
(tempered Ricci) it is ``(1 - 1/tau) / 4`` with ``tau`` in ``(0, inf]``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chern import ChernPoint, q_squared_chart, q_squared_frame, second_ricci
from .errors import ConfigError
from .tensor_core import PSDForm, hermitian_part, psd_project, psd_project_batch

__all__ = [
    "TauParam",
    "BoundCertificate",
    "hsc",
    "hbc",
    "rbc",
    "rbc_forms",
    "altered_hsc",
    "altered_hsc_forms",
    "ric_tau_frame",
    "ric_tau",
    "frame_vector",
    "extremize_hsc",
    "extremize_rbc",
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


def _real(values, label: str, scale=1.0):
    """``values / scale`` for real ``scale``; ConfigError unless every result is real."""
    real = values.real / scale
    imag = values.imag / scale
    excess = np.abs(imag) > _IMAG_TOL * np.maximum(1.0, np.abs(real))
    if np.any(excess):
        worst = np.ravel(imag)[np.argmax(excess)]
        raise ConfigError(f"{label} should be real, got imaginary part {worst:.3e}")
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
    return _real(_pairing(tensor, forms, forms), label, norm2)


def _pairing(tensor: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``tensor[..., a, b, c, d] left[..., x, a, b] right[..., x, c, d]`` for every row ``x``."""
    return np.einsum("...abcd,...xab,...xcd->...x", tensor, left, right)


def _tempered_tensor(point: ChernPoint, tau: TauParam) -> np.ndarray:
    """``R - ((1 - tau)/4) T T*`` in the frame; exactly ``R`` at ``tau = 1``."""
    r = point.curvature_frame
    weight = tau.target_weight
    if weight == 0.0:
        return r
    t = point.torsion_frame
    return r - weight * np.einsum("...acr,...bdr->...abcd", t, np.conj(t))


def frame_vector(point: ChernPoint, v_chart: np.ndarray) -> np.ndarray:
    """Frame components of a chart tangent vector (holomorphic up index)."""
    return point.frame.L.T @ np.asarray(v_chart, dtype=complex)


def hsc(point: ChernPoint, zeta: np.ndarray) -> float:
    """Holomorphic sectional curvature of the frame vector ``zeta``."""
    forms = _rank_one(np.asarray(zeta, dtype=complex)[None])
    value = _form_values(point.curvature_frame, forms, "holomorphic sectional curvature")
    return float(value[0])


def hbc(point: ChernPoint, zeta: np.ndarray, nu: np.ndarray) -> float:
    """Holomorphic bisectional curvature of the frame pair ``(zeta, nu)``."""
    zeta = np.asarray(zeta, dtype=complex)
    nu = np.asarray(nu, dtype=complex)
    norm2 = float(np.real(np.vdot(zeta, zeta))) * float(np.real(np.vdot(nu, nu)))
    if norm2 == 0.0:
        raise ConfigError("bisectional curvature needs nonzero vectors")
    value = _pairing(point.curvature_frame, _rank_one(zeta[None]), _rank_one(nu[None]))
    return float(_real(value, "holomorphic bisectional curvature", norm2)[0])


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


def altered_hsc_forms(point: ChernPoint, forms: np.ndarray) -> np.ndarray:
    """:func:`altered_hsc` of each form of ``forms`` ``(..., B, n, n)`` at the point(s) given."""
    r = point.curvature_frame
    total = r + np.swapaxes(r, -3, -1)
    return _form_values(total, forms, "altered sectional curvature")


def ric_tau_frame(point: ChernPoint, tau: TauParam) -> np.ndarray:
    """Tempered Ricci form in the unitary frame.

    ``Ric^tau = Ric^(2) + ((1 - 1/tau)/4) Q`` with ``Q`` the torsion square.
    At ``tau = 1`` this returns the second Ricci trace unchanged.
    """
    r = point.curvature_frame
    ric2 = np.einsum("iikl->kl", r)
    if tau.value == 1.0:
        return ric2
    return ric2 + tau.source_weight * q_squared_frame(point.torsion_frame)


def ric_tau(point: ChernPoint, tau: TauParam) -> np.ndarray:
    """Tempered Ricci form in chart coordinates."""
    ric2 = second_ricci(point.g_up, point.curvature)
    if tau.value == 1.0:
        return ric2
    return ric2 + tau.source_weight * q_squared_chart(point.torsion, point.g, point.g_up)


# ---------------------------------------------------------------------------
# extremizers


@dataclass(frozen=True)
class BoundCertificate:
    """Result of a multistart projected ascent.

    ``value`` re-evaluates exactly on ``witness``; ``samples`` counts the
    random starts and ``ascent_iterations`` the accepted steps across all of
    them.  ``kind`` is ``"sup"`` or ``"inf"``.
    """

    kind: str
    value: float
    witness: np.ndarray
    samples: int
    ascent_iterations: int
    tolerance: float


def _ascend(
    objective: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    maximize: bool,
    steps: int,
    base_step: float = 1e-2,
    fd_step: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Central-difference gradient ascent of every row of ``x0`` at once.

    ``objective`` maps ``(B, dim)`` rows to ``(B,)`` values.  Each start keeps
    its own step size and accepted-step count; returns rows, values, counts.
    """
    x = x0.copy()
    value = objective(x)
    count, dim = x.shape
    step = np.full(count, base_step)
    accepted = np.zeros(count, dtype=int)
    active = np.ones(count, dtype=bool)
    axis = np.arange(dim)
    for _ in range(steps):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        high = np.repeat(x[live, None, :], dim, axis=1)
        high[:, axis, axis] += fd_step
        low = high.copy()
        low[:, axis, axis] -= 2 * fd_step
        f_high, f_low = objective(np.concatenate([high, low]).reshape(-1, dim)).reshape(2, -1, dim)
        grad = (f_high - f_low) / (2 * fd_step)
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
            trial = objective(candidate)
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


def _multistart(
    objective: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    draw_start: Callable[[np.random.Generator], np.ndarray],
    witness: Callable[[np.ndarray], np.ndarray],
    kind: str,
    seed: int,
    starts: int,
    steps: int,
) -> BoundCertificate:
    """Ascend from ``starts`` seeded draws and certify the best end point.

    ``objective`` returns ``(values, keep)``: values for the rows ``keep``
    selects; the other rows are outside the domain and score worst.
    """
    if kind not in ("sup", "inf"):
        raise ConfigError(f"extremizer kind must be 'sup' or 'inf', got '{kind}'")
    if starts < 1:
        raise ConfigError(f"the ascent needs at least one start, got {starts}")
    if steps < 0:
        raise ConfigError(f"ascent steps must be nonnegative, got {steps}")
    maximize = kind == "sup"

    def scored(params: np.ndarray) -> np.ndarray:
        values, keep = objective(params)
        full = np.full(len(params), -math.inf if maximize else math.inf)
        full[keep] = values
        return full

    rng = np.random.default_rng(seed)
    initial = np.array([draw_start(rng) for _ in range(starts)])
    params, values, accepted = _ascend(scored, initial, maximize, steps)
    # deterministic reduction: best value, ties broken by the lowest start index
    best = int(np.argmax(values) if maximize else np.argmin(values))
    return BoundCertificate(
        kind=kind,
        value=float(values[best]),
        witness=witness(params[best]),
        samples=starts,
        ascent_iterations=int(accepted.sum()),
        tolerance=1e-12,
    )


def extremize_hsc(
    point: ChernPoint,
    kind: str,
    seed: int = 0,
    starts: int = 64,
    steps: int = 200,
) -> BoundCertificate:
    """Multistart ascent of holomorphic sectional curvature over unit vectors.

    The vector is parametrised by its ``2n`` real components; the functional
    is scale invariant so the ascent wanders freely and the witness is
    normalised at the end.
    """
    n = point.g.shape[0]
    r = point.curvature_frame

    def unpack(params: np.ndarray) -> np.ndarray:
        zeta = params[..., :n] + 1j * params[..., n:]
        return zeta / np.linalg.norm(zeta, axis=-1, keepdims=True)

    def objective(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keep = np.linalg.norm(params, axis=1) >= 1e-12
        forms = _rank_one(unpack(params[keep]))
        return _form_values(r, forms, "holomorphic sectional curvature"), keep

    def draw(rng: np.random.Generator) -> np.ndarray:
        raw = rng.normal(size=2 * n)
        return raw / np.linalg.norm(raw)

    return _multistart(objective, draw, unpack, kind, seed, starts, steps)


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
    return np.array(basis)


def extremize_rbc(
    point: ChernPoint,
    tau: TauParam,
    kind: str,
    seed: int = 0,
    starts: int = 64,
    steps: int = 200,
) -> BoundCertificate:
    """Multistart projected ascent of ``RBC^tau`` over unit-norm PSD forms.

    The iterate lives in the real vector space of Hermitian matrices; every
    evaluation projects onto the positive semidefinite shell first, so the
    reported witness is always a valid form.
    """
    n = point.g.shape[0]
    basis = _hermitian_basis(n)
    tensor = _tempered_tensor(point, tau)

    def unpack(params: np.ndarray) -> np.ndarray:
        return np.tensordot(params, basis, axes=1)

    def objective(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = unpack(params)
        # a collapsed projection (no positive part) is masked, never raised
        forms, keep = psd_project_batch(m)
        keep &= np.linalg.norm(m, axis=(1, 2)) >= 1e-12
        return _form_values(tensor, forms[keep], "real bisectional curvature"), keep

    def draw(rng: np.random.Generator) -> np.ndarray:
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = hermitian_part(raw @ raw.conj().T)
        coeffs = np.array([float(np.real(np.sum(h * np.conj(e)))) for e in basis])
        return coeffs / np.linalg.norm(coeffs)

    def witness(params: np.ndarray) -> np.ndarray:
        return psd_project(unpack(params)).entries

    return _multistart(objective, draw, witness, kind, seed, starts, steps)
