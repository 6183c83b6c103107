"""Chern connection data: torsion, curvature, Ricci traces, normal charts.

A :class:`ChernPoint` is a metric jet in chart coordinates whose Chern
tensors are formed on first read and kept.  With ``X`` the raised-index
inverse of ``g``:

    Gamma[i, k, p] = Gamma^p_{ik}     = sum_q X[p, q] d_i g_{k qbar}
    T[i, j, k]     = T^k_{ij}         = Gamma[i, j, k] - Gamma[j, i, k]
    R[i, j, k, l]  = R_{i jbar k lbar}
                   = - d_i dbar_j g_{k lbar} + sum_p Gamma[i, k, p] conj(d_j g_{l pbar})

The unitary frame is formed only when a frame tensor is read, and each frame
tensor only when it is itself read: chart-only code never builds a frame.

The four Ricci traces contract the curvature with ``X`` over the four
possible index pairs.  The first two are Hermitian; the third and fourth are
mutual conjugate transposes and coincide only under extra symmetry.

The jet, and so every tensor built from it, may carry leading batch axes: a
jet with ``g`` of shape ``(..., n, n)`` gives torsion ``(..., n, n, n)`` and
curvature ``(..., n, n, n, n)``, one point per batch index.  Every formula is
a chain of two-operand contractions over those axes, so one call serves a
single point and a whole grid alike.  On a stack, all but the second Ricci
trace run with the point axes innermost, so einsum loops over the points, not
over core axes of at most four entries, and give einsum's bits.

The frame algebra that the family transforms and functionals share lives here
too: torsion products, slot swaps, frame traces and the pairing with forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import prod
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, require
from .metric_model.expr import Add, Conj, Const, Expr, Mul, Var, substitute
from .metric_model.jets import DEFAULT_SCHEME, JetScheme, field_first
from .metric_model.model import MetricJet, MetricSpec, Region, metric_jet
from .tensor_core import UnitaryFrame

__all__ = [
    "RicciTraces",
    "ChernPoint",
    "NormalChart",
    "ricci_traces",
    "second_ricci",
    "frame_traces",
    "torsion_product_a",
    "torsion_product_b",
    "swap13",
    "swap24",
    "form_pairing",
    "q_squared_frame",
    "q_squared_chart",
    "first_bianchi_residual",
    "pluriclosed_residuals",
    "normal_coordinates",
]


@lru_cache(maxsize=None)
def _points_last(subscripts: str) -> tuple[str, tuple[int, ...]]:
    """``"...ab,...bc->...ac"`` as ``("ab...,bc...->ac...", (2, 2))``.

    The subscripts with the point axes last, and each operand's count of core axes.
    """
    inputs, output = subscripts.split("->")
    cores = [term.removeprefix("...") for term in inputs.split(",")]
    moved = ",".join(core + "..." for core in cores) + "->" + output.removeprefix("...") + "..."
    return moved, tuple(len(core) for core in cores)


def _contract(subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, a, b)`` for ``"...ab,...bc->...ac"`` subscripts, bit for bit.

    Over a stack of more than one point, each operand's point axes are moved
    last as a C-contiguous copy, so einsum's inner loop runs over all the
    points instead of a core axis of at most four entries; the sum over each
    contracted index keeps its order, so every value is einsum's.  The result
    is a C-contiguous array with the point axes first.  With one point or
    ``n = 1`` the move changes no memory order, so those stacks, and operands
    whose point axes differ (broadcasting), take einsum directly.
    """
    last, (rank_a, rank_b) = _points_last(subscripts)
    points = a.ndim - rank_a
    batch = a.shape[:points]
    if prod(batch) <= 1 or a.shape[-1] == 1 or b.shape[:b.ndim - rank_b] != batch:
        return np.einsum(subscripts, a, b)
    moved = [np.ascontiguousarray(x.transpose(*range(points, x.ndim), *range(points)))
             for x in (a, b)]
    out = np.einsum(last, *moved)
    core = out.ndim - points
    return np.ascontiguousarray(out.transpose(*range(core, out.ndim), *range(core)))


def second_ricci(x: np.ndarray, curvature: np.ndarray) -> np.ndarray:
    """The second Ricci trace ``Ric2[..., k, l] = sum_{i,j} X[i, j] R[i, j, k, l]``."""
    # in place: einsum's inner loop already runs over the contiguous kl block
    return np.einsum("...ij,...ijkl->...kl", x, curvature)


class RicciTraces(NamedTuple):
    """The four curvature traces, indexed ``[..., k, l] = (k, lbar)``."""

    ric1: np.ndarray
    ric2: np.ndarray
    ric3: np.ndarray
    ric4: np.ndarray


def ricci_traces(jet: MetricJet) -> RicciTraces:
    """Contract the curvature with the inverse metric in all four ways."""
    point = ChernPoint.from_jet(jet)
    r, x = point.curvature, point.g_up
    # one contiguous copy of r^13 serves the third trace (slots 1, 2) and the
    # fourth (slots 3, 4 of the copy)
    swapped = np.ascontiguousarray(swap13(r))
    return RicciTraces(
        ric1=_contract("...ij,...klij->...kl", x, r),
        ric2=second_ricci(x, r),
        ric3=second_ricci(x, swapped),
        ric4=_contract("...ij,...klij->...kl", x, swapped),
    )


def frame_traces(r: np.ndarray) -> RicciTraces:
    """The four traces of a frame tensor, where the metric is the identity.

    ``ric1[k, l] = sum_i r[k, l, i, i]``, ``ric2 = sum_i r[i, i, k, l]``,
    ``ric3 = sum_i r[k, i, i, l]`` and ``ric4 = sum_i r[i, l, k, i]``.
    """
    subscripts = ("klii", "iikl", "kiil", "ilki")
    return RicciTraces(*(np.einsum(f"...{s}->...kl", r) for s in subscripts))


def torsion_product_a(torsion: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """``TTA[..., i, j, k, l] = sum_r T[i, k, r] conj(U[j, l, r])``, with ``U = T`` by default."""
    other = torsion if other is None else other
    return _contract("...ikr,...jlr->...ijkl", torsion, np.conj(other))


def torsion_product_b(torsion: np.ndarray) -> np.ndarray:
    """``TTB[..., i, j, k, l] = sum_r T[i, r, l] conj(T[j, r, k])``."""
    return _contract("...irl,...jrk->...ijkl", torsion, np.conj(torsion))


def swap13(a: np.ndarray) -> np.ndarray:
    """Holomorphic slots exchanged: ``a^13[..., i, j, k, l] = a[..., k, j, i, l]``, a view."""
    return np.swapaxes(a, -4, -2)


def swap24(a: np.ndarray) -> np.ndarray:
    """Antiholomorphic slots exchanged: ``a^24[..., i, j, k, l] = a[..., i, l, k, j]``, a view."""
    return np.swapaxes(a, -3, -1)


def form_pairing(tensor: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``tensor[..., a, b, c, d] left[..., x, a, b] right[..., x, c, d]`` for every row ``x``."""
    return np.einsum("...abcd,...xab,...xcd->...x", tensor, left, right)


def q_squared_frame(torsion_frame: np.ndarray) -> np.ndarray:
    """Torsion square ``Q[..., k, l] = sum_{p,q} T[p, q, l] conj(T[p, q, k])``.

    Positive semidefinite by construction; unitary-frame input expected.
    """
    return _contract("...pql,...pqk->...kl", torsion_frame, np.conj(torsion_frame))


def q_squared_chart(torsion: np.ndarray, g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The torsion square as a chart Hermitian form, without a frame.

    ``Q[k, l] = sum X[i, a] X[j, b] Tb[i, j, l] conj(Tb[a, b, k])`` with the
    lowered torsion ``Tb[i, j, l] = sum_m T[i, j, m] g[m, l]`` and ``x`` the
    raised-index inverse of ``g``.  Equals ``L q_squared_frame(T_frame) L^H``.
    """
    lowered = _contract("...ijm,...ml->...ijl", torsion, g)
    raised = _contract("...ia,...abk->...ibk", x, np.conj(lowered))
    raised = _contract("...jb,...ibk->...ijk", x, raised)
    return _contract("...ijl,...ijk->...kl", lowered, raised)


class ChernPoint(MetricJet):
    """A metric jet with its Chern tensors, each formed on first read and kept.

    ``gamma``, ``torsion`` and ``curvature`` are chart tensors; ``frame`` is
    the unitary frame from the Cholesky factor of the metric, and
    ``torsion_frame`` and ``curvature_frame`` are the tensors moved into it.
    A stacked jet gives tensors that all carry the jet's batch axes.
    """

    @classmethod
    def from_jet(cls, jet: MetricJet) -> "ChernPoint":
        """``jet`` itself if a ChernPoint, else a ChernPoint on its arrays and formed factors."""
        if isinstance(jet, ChernPoint):
            return jet
        point = cls(jet.point, jet.g, jet.d_g, jet.dd_g)
        vars(point).update(vars(jet))
        return point

    @classmethod
    def from_spec(cls, spec: MetricSpec, z: np.ndarray) -> "ChernPoint":
        """The record of the checked metric jet at the points ``z`` ``(..., n)``."""
        return cls.from_jet(metric_jet(spec, z))

    @cached_property
    def gamma(self) -> np.ndarray:
        """Connection coefficients ``Gamma[..., i, k, p] = Gamma^p_{ik}``."""
        return _contract("...pq,...ikq->...ikp", self.g_up, self.d_g)

    @cached_property
    def torsion(self) -> np.ndarray:
        """Torsion ``T[..., i, j, k] = T^k_{ij}``, antisymmetric in ``(i, j)``."""
        return self.gamma - np.swapaxes(self.gamma, -3, -2)

    @cached_property
    def curvature(self) -> np.ndarray:
        """Curvature ``R[..., i, j, k, l] = R_{i jbar k lbar}``.

        Hermitian symmetry ``R[i, j, k, l] = conj(R[j, i, l, k])`` holds exactly
        at the level of the formula; tests pin it down numerically.  A
        first-order jet has no ``dd_g``, so reading it there raises.
        """
        return -self.dd_g + _contract("...ikp,...jlp->...ijkl", self.gamma, np.conj(self.d_g))

    @cached_property
    def frame(self) -> UnitaryFrame:
        """The unitary frame of :attr:`cholesky`.

        ``g_up`` is formed first, so a singular metric fails as singular.
        """
        self.g_up
        return UnitaryFrame.from_factor(self.cholesky)

    @cached_property
    def torsion_frame(self) -> np.ndarray:
        return self.frame.torsion_to_frame(self.torsion)

    @cached_property
    def curvature_frame(self) -> np.ndarray:
        return self.frame.curvature_to_frame(self.curvature)


def first_bianchi_residual(
    spec: MetricSpec, at: np.ndarray | MetricJet, scheme: JetScheme = DEFAULT_SCHEME
) -> np.ndarray:
    """Max deviation in ``dbar_m T^k_{ij} = sum_l X[k,l] (R[j,m,i,l] - R[i,m,j,l])``.

    ``at`` is the points ``(..., n)`` or the caller's jet of ``spec`` there,
    whose record then serves the centres.  One value per point, shape
    ``(...)``.  The left side differences the torsion field with the scheme's
    stencils, one checked first-order metric jet over the footprint of every
    point, which must lie in the metric's region (else :class:`ConfigError`);
    the torsion reads only ``g`` and ``d_g``.  The right side is assembled at
    the centre points.  Chart frame throughout, so no connection
    terms enter.  A residual that is not finite is a :class:`NumericalError`.
    """
    is_jet = isinstance(at, MetricJet)
    point = ChernPoint.from_jet(at) if is_jet else ChernPoint.from_spec(spec, at)
    r = point.curvature
    _, dbar_t = field_first(lambda w: ChernPoint.from_jet(metric_jet(spec, w, 1)).torsion,
                            point.point, scheme, region=spec.region)
    rhs = (_contract("...kl,...jmil->...mijk", point.g_up, r)
           - _contract("...kl,...imjl->...mijk", point.g_up, r))
    residual = np.abs(dbar_t - rhs).max(axis=(-4, -3, -2, -1))
    require(np.isfinite(residual), NumericalError, "the Bianchi residual is not finite at {}",
            point.point)
    return residual


def _alternation(a: np.ndarray) -> np.ndarray:
    """``a - a^13 - a^24 + a^1324``: ``a[i,j,k,l] - a[k,j,i,l] - a[i,l,k,j] + a[k,l,i,j]``."""
    swapped = swap13(a)
    return a - swapped - swap24(a) + swap24(swapped)


def pluriclosed_residuals(jet: MetricJet) -> tuple[np.ndarray, np.ndarray]:
    """Two routes to pluriclosedness; both vanish iff ``ddbar omega = 0``.

    Returns ``(r_direct, r_symmetry)``, one value per point of the jet (shape
    ``(...)``, a 0-d array for a single point): the largest entry of the
    direct second-derivative alternation, and of the curvature-torsion
    symmetry that characterises the same condition through connection data.
    """
    point = ChernPoint.from_jet(jet)
    entries = (-4, -3, -2, -1)
    r_direct = np.abs(_alternation(point.dd_g)).max(axis=entries)

    t = point.torsion
    # sum_{p,q} T[i,k,p] conj(T[j,l,q]) g[p,q], the torsion lowered first
    rhs = torsion_product_a(_contract("...ikp,...pq->...ikq", t, point.g), t)
    lhs = _alternation(point.curvature)
    r_symmetry = np.abs(lhs - rhs).max(axis=entries)
    return r_direct, r_symmetry


def _polynomial(coefficients: list[tuple[complex, Expr | None]]) -> Expr:
    """Sum of ``coeff * factor`` terms, skipping zero coefficients."""
    terms = [Const(complex(coeff)) if factor is None else Mul(Const(complex(coeff)), factor)
             for coeff, factor in coefficients if coeff != 0]
    return reduce(Add, terms) if terms else Const(0j)


@dataclass(frozen=True)
class NormalChart:
    """A quadratic recentring ``z = p + S w + (1/2) C w w`` adapted at ``p``.

    In the new coordinates the metric is the identity at the origin and its
    holomorphic first derivatives reduce to half the torsion; the mixed
    second derivatives then recover the curvature up to a quadratic torsion
    term.  ``residuals`` reports all three relations.
    """

    center: np.ndarray
    S: np.ndarray
    C: np.ndarray
    composed: MetricSpec
    residuals: dict[str, float]


def normal_coordinates(spec: MetricSpec, p: np.ndarray) -> NormalChart:
    """Build the adapted quadratic chart at ``p`` and verify its relations."""
    p = np.asarray(p, dtype=complex)
    point = ChernPoint.from_spec(spec, p)
    n = point.n
    chol, s = point.frame.L, point.frame.L_inv.T

    # D[a, e, b] pulls the first derivatives back through S.
    d_pulled = np.einsum("ikl,ia,ke,lb->aeb", point.d_g, s, s, np.conj(s))
    sym = d_pulled + np.transpose(d_pulled, (1, 0, 2))
    rhs = -0.5 * np.transpose(sym, (2, 0, 1)).reshape(n, n * n)
    c = np.linalg.solve(chol.T, rhs).reshape(n, n, n)

    # z_k(w) = p_k + sum_a S[k,a] w_a + (1/2) sum_{a,e} C[k,a,e] w_a w_e, and its Jacobian
    idx = range(n)
    phi = [_polynomial([(p[k], None)] + [(s[k, a], Var(a)) for a in idx]
                       + [(0.5 * c[k, a, e], Mul(Var(a), Var(e))) for a in idx for e in idx])
           for k in idx]
    jac = [[_polynomial([(s[k, a], None)] + [(c[k, a, e], Var(e)) for e in idx]) for a in idx]
           for k in idx]
    pulled = [[substitute(entry, phi) for entry in row] for row in spec.entries]
    entries = tuple(
        tuple(reduce(Add, [Mul(pulled[k][l], Mul(jac[k][a], Conj(jac[l][b])))
                           for k in idx for l in idx]) for b in idx)
        for a in idx
    )

    composed = MetricSpec(name=f"{spec.name}:normal", n=n, entries=entries,
                          region=Region("ball", 0.05))

    origin = np.zeros(n, dtype=complex)
    hat = ChernPoint.from_spec(composed, origin)
    torsion_hat = hat.torsion
    curvature_hat = hat.curvature
    rel1 = float(np.max(np.abs(hat.g - np.eye(n))))
    rel2 = float(np.max(np.abs(hat.d_g - 0.5 * torsion_hat)))
    quartic = 0.25 * np.einsum("ikp,jlq,pq->ijkl", torsion_hat, np.conj(torsion_hat), hat.g)
    rel3 = float(np.max(np.abs(hat.dd_g + curvature_hat - quartic)))
    return NormalChart(
        center=p,
        S=s,
        C=c,
        composed=composed,
        residuals={"metric_identity": rel1, "first_order": rel2, "second_order": rel3},
    )
