"""Holomorphic maps, energy densities, and Schwarz-type estimates.

The central identity expands the Laplacian of the energy density
``e = |df|^2`` of a holomorphic map ``f`` between Hermitian manifolds:

    Delta e = |H|^2 + Ric2[q,p] f[a,p] conj(f[a,q])
              - R_h[a,b,c,d] xi[a,b] xi[c,d],

with everything in unitary frames: ``H`` the Chern Hessian of the map,
``Ric2`` the second Ricci trace of the source, ``R_h`` the target curvature,
``xi[a,b] = sum_i f[a,i] conj(f[b,i])`` the pushforward form.  The left side
is computed by finite differences of the scalar field ``e`` and the right
side assembled from exact pointwise tensors, so the residual measures the
truncation error of the scheme and nothing else.

The skew part of ``H`` is torsion: ``2 Skew(H) = T_h(df, df) - df(T_g)``
entry by entry, which pins down every sign in the assembly.  Replacing both
connections by other members of the canonical family shifts ``H`` by terms
antisymmetric in the two lower slots, so the symmetric part is family
invariant; :func:`connection_invariance_residual` checks that numerically.

Map components are expression trees; their first and second derivatives are
taken symbolically, so the only finite differencing anywhere is the outer
Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chern import ChernPoint, connection_coefficients
from .errors import ConfigError, NumericalError
from .functionals import TauParam
from .gauduchon import family_ricci_traces, gauduchon_family, rbc_tau_from_family, ric_tau_from_family
from .metric_model import (
    DEFAULT_SCHEME,
    Expr,
    JetScheme,
    MetricJet,
    MetricSpec,
    complex_jet2,
    eval_expr,
    field_first,
    holomorphic_derivative,
    is_holomorphic,
    max_var_index,
    metric_jet,
    metric_value,
    parse_expr,
)
from .tensor_core import hermitian_part, metric_inverse_up

__all__ = [
    "HoloMap",
    "MapJet",
    "MapJetEvaluator",
    "MapAssembly",
    "holomorphy_residual",
    "assemble_map",
    "hessian_tensors",
    "torsion_difference_frame",
    "scalar_laplacian",
    "energy_density",
    "LaplacianIdentityReport",
    "laplacian_identity_report",
    "connection_invariance_residual",
    "young_split_slack",
    "singular_square_bound_slack",
    "energy_upper_bound",
    "SchwarzReport",
    "schwarz_inequality_report",
    "BismutComparisonReport",
    "bismut_comparison_report",
]


@dataclass(frozen=True)
class HoloMap:
    """A holomorphic map given by one expression tree per target coordinate."""

    components: tuple[Expr, ...]
    n_source: int

    def __post_init__(self) -> None:
        if self.n_source < 1:
            raise ConfigError("map needs a positive source dimension")
        for k, comp in enumerate(self.components):
            if not is_holomorphic(comp):
                raise ConfigError(f"map component {k + 1} is not holomorphic")
            if max_var_index(comp) >= self.n_source:
                raise ConfigError(
                    f"map component {k + 1} uses z{max_var_index(comp) + 1}, "
                    f"but the source has dimension {self.n_source}"
                )

    @property
    def n_target(self) -> int:
        return len(self.components)

    @classmethod
    def parse(cls, texts: Sequence[str], n_source: int) -> "HoloMap":
        return cls(tuple(parse_expr(t) for t in texts), n_source)

    def value(self, z: np.ndarray) -> np.ndarray:
        """Map values ``(..., n_target)`` at points ``(..., n_source)``."""
        return _fold(self.components, np.asarray(z, dtype=complex), "value")


def _fold(trees: Sequence[Expr], z: np.ndarray, what: str) -> np.ndarray:
    """Each tree folded over the points ``z`` ``(..., n)``, stacked on a last axis.

    Raises :class:`NumericalError` naming the first point where a value is
    not finite.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = [np.broadcast_to(eval_expr(tree, z), z.shape[:-1]) for tree in trees]
    stacked = np.stack(values, -1).astype(complex, copy=False)
    finite = np.isfinite(stacked).all(-1)
    if not finite.all():
        raise NumericalError(f"map {what} is not finite at {z[~finite][0]}")
    return stacked


@dataclass(frozen=True)
class MapJet:
    """Value, Jacobian ``J[..., a, i] = d_i f^a``, and holomorphic Hessian.

    The arrays carry the leading batch axes of the points, C-contiguous.
    """

    point: np.ndarray
    value: np.ndarray
    jacobian: np.ndarray
    hessian: np.ndarray


class MapJetEvaluator:
    """Evaluates a map together with its exact first and second derivatives.

    The derivative trees are built once, flattened in ``(a, i)`` and
    ``(a, i, j)`` order; evaluation folds them over a whole stack of points,
    such as a finite-difference footprint.  A value, Jacobian or Hessian
    that is not finite is a :class:`NumericalError`.
    """

    def __init__(self, holo_map: HoloMap) -> None:
        self.holo_map = holo_map
        n = holo_map.n_source
        self._jac = [holomorphic_derivative(c, i) for c in holo_map.components for i in range(n)]
        self._hess = [holomorphic_derivative(d, j) for d in self._jac for j in range(n)]

    def __call__(self, z: np.ndarray) -> MapJet:
        z = np.asarray(z, dtype=complex)
        shape = z.shape[:-1] + (self.holo_map.n_target, self.holo_map.n_source)
        return MapJet(
            point=z.copy(),
            value=self.holo_map.value(z),
            jacobian=_fold(self._jac, z, "Jacobian").reshape(shape),
            hessian=_fold(self._hess, z, "Hessian").reshape(shape + shape[-1:]),
        )


def holomorphy_residual(
    holo_map: HoloMap, z: np.ndarray, scheme: JetScheme = DEFAULT_SCHEME
) -> float:
    """Largest antiholomorphic first derivative of the map at ``z``.

    The parser already rejects conjugations; this is the numerical
    counterpart, useful as a scheme sanity check.
    """
    _, dbar = field_first(holo_map.value, np.asarray(z, dtype=complex), scheme)
    return float(np.max(np.abs(dbar)))


@dataclass(frozen=True)
class MapAssembly:
    """Pointwise data of a map between two metrics, chart and frame."""

    z: np.ndarray
    map_jet: MapJet
    source_jet: MetricJet
    target_jet: MetricJet
    source_point: ChernPoint
    target_point: ChernPoint
    jac_frame: np.ndarray


def assemble_map(
    source: MetricSpec,
    target: MetricSpec,
    holo_map: HoloMap,
    z: np.ndarray,
    scheme: JetScheme = DEFAULT_SCHEME,
) -> MapAssembly:
    if holo_map.n_source != source.n:
        raise ConfigError(
            f"map expects source dimension {holo_map.n_source}, metric has {source.n}"
        )
    if holo_map.n_target != target.n:
        raise ConfigError(
            f"map has {holo_map.n_target} components, target metric has dimension {target.n}"
        )
    z = np.asarray(z, dtype=complex)
    evaluator = MapJetEvaluator(holo_map)
    map_jet = evaluator(z)
    image = map_jet.value
    if not target.region.contains(image):
        raise ConfigError(f"image point {image} leaves the target region")
    source_jet = metric_jet(source, z, scheme)
    target_jet = metric_jet(target, image, scheme)
    source_point = ChernPoint.from_jet(source_jet)
    target_point = ChernPoint.from_jet(target_jet)
    jac_frame = (
        target_point.frame.L.T @ map_jet.jacobian @ source_point.frame.L_inv.T
    )
    return MapAssembly(
        z=z,
        map_jet=map_jet,
        source_jet=source_jet,
        target_jet=target_jet,
        source_point=source_point,
        target_point=target_point,
        jac_frame=jac_frame,
    )


def _hessian_chart(
    map_jet: MapJet, gamma_target: np.ndarray, gamma_source: np.ndarray
) -> np.ndarray:
    jac = map_jet.jacobian
    return (
        map_jet.hessian
        + np.einsum("gra,gi,rj->aij", gamma_target, jac, jac)
        - np.einsum("ijp,ap->aij", gamma_source, jac)
    )


def _frame_hessian(assembly: MapAssembly, chart: np.ndarray) -> np.ndarray:
    lh_t = assembly.target_point.frame.L.T
    lg_inv = assembly.source_point.frame.L_inv
    return np.einsum("Aa,Ii,Jj,aij->AIJ", lh_t, lg_inv, lg_inv, chart)


def hessian_tensors(assembly: MapAssembly) -> tuple[np.ndarray, np.ndarray]:
    """Chern Hessian of the map in chart and frame indices."""
    gamma_source = connection_coefficients(assembly.source_jet)
    gamma_target = connection_coefficients(assembly.target_jet)
    chart = _hessian_chart(assembly.map_jet, gamma_target, gamma_source)
    return chart, _frame_hessian(assembly, chart)


def torsion_difference_frame(assembly: MapAssembly) -> np.ndarray:
    """``T_h(df, df) - df(T_g)`` in frames; twice the skew Hessian."""
    f = assembly.jac_frame
    th = assembly.target_point.torsion_frame
    tg = assembly.source_point.torsion_frame
    return np.einsum("gra,gi,rj->aij", th, f, f) - np.einsum("ijp,ap->aij", tg, f)


def _energy_field(
    source: MetricSpec, target: MetricSpec, evaluator: MapJetEvaluator
) -> Callable[[np.ndarray], np.ndarray]:
    def field(w: np.ndarray) -> np.ndarray:
        x = metric_inverse_up(metric_value(source, w))
        jet = evaluator(w)
        h = metric_value(target, jet.value)
        return np.einsum("...ij,...ab,...ai,...bj->...", x, h, jet.jacobian,
                         np.conj(jet.jacobian))

    return field


def energy_density(
    source: MetricSpec, target: MetricSpec, holo_map: HoloMap, z: np.ndarray
) -> float:
    """``|df|^2`` at ``z``: trace of the pulled-back target metric."""
    field = _energy_field(source, target, MapJetEvaluator(holo_map))
    return float(np.real(field(np.asarray(z, dtype=complex))))


def scalar_laplacian(
    field: Callable[[np.ndarray], np.ndarray],
    source: MetricSpec,
    z: np.ndarray,
    scheme: JetScheme = DEFAULT_SCHEME,
) -> float:
    """Chern Laplacian ``g^{ij} d_i dbar_j`` of a scalar field at ``z``.

    ``field`` maps points ``(..., n)`` to values ``(...)``; the stencil
    footprint must lie in the source region (else :class:`ConfigError`).
    """
    z = np.asarray(z, dtype=complex)
    x = metric_inverse_up(metric_value(source, z))
    jet = complex_jet2(field, z, scheme, region=source.region)
    return float(np.real(np.einsum("ij,ij->", x, jet.dd)))


@dataclass(frozen=True)
class LaplacianIdentityReport:
    """Both sides of the energy-density expansion at one point."""

    energy: float
    laplacian: float
    hessian_square: float
    symmetric_square: float
    skew_square: float
    ricci_term: float
    target_term: float
    assembled: float
    relative_residual: float
    skew_residual: float


def laplacian_identity_report(
    source: MetricSpec,
    target: MetricSpec,
    holo_map: HoloMap,
    z: np.ndarray,
    scheme: JetScheme = DEFAULT_SCHEME,
) -> LaplacianIdentityReport:
    assembly = assemble_map(source, target, holo_map, z, scheme)
    _, frame_hessian = hessian_tensors(assembly)
    sym = 0.5 * (frame_hessian + frame_hessian.swapaxes(1, 2))
    skew = 0.5 * (frame_hessian - frame_hessian.swapaxes(1, 2))
    difference = torsion_difference_frame(assembly)
    skew_residual = float(np.max(np.abs(2.0 * skew - difference)))

    hessian_square = float(np.sum(np.abs(frame_hessian) ** 2))
    symmetric_square = float(np.sum(np.abs(sym) ** 2))
    skew_square = float(np.sum(np.abs(skew) ** 2))

    f = assembly.jac_frame
    ric2 = np.einsum("iikl->kl", assembly.source_point.curvature_frame)
    ricci_term = float(np.real(np.einsum("qp,ap,aq->", ric2, f, np.conj(f))))
    xi = np.einsum("ai,bi->ab", f, np.conj(f))
    r_target = assembly.target_point.curvature_frame
    target_term = float(np.real(np.einsum("abcd,ab,cd->", r_target, xi, xi)))
    assembled = hessian_square + ricci_term - target_term

    field = _energy_field(source, target, MapJetEvaluator(holo_map))
    energy = float(np.real(field(assembly.z)))
    laplacian = scalar_laplacian(field, source, assembly.z, scheme)
    relative_residual = abs(laplacian - assembled) / max(1.0, abs(laplacian))
    return LaplacianIdentityReport(
        energy=energy,
        laplacian=laplacian,
        hessian_square=hessian_square,
        symmetric_square=symmetric_square,
        skew_square=skew_square,
        ricci_term=ricci_term,
        target_term=target_term,
        assembled=assembled,
        relative_residual=relative_residual,
        skew_residual=skew_residual,
    )


def connection_invariance_residual(
    source: MetricSpec,
    target: MetricSpec,
    holo_map: HoloMap,
    z: np.ndarray,
    t_source: float,
    t_target: float,
    scheme: JetScheme = DEFAULT_SCHEME,
    assembly: MapAssembly | None = None,
) -> float:
    """Drift of the symmetric map Hessian under a change of connections.

    Both connections are moved along the canonical family,
    ``Gamma_t = Gamma - ((1 - t)/2) T``; the symmetric part must not move.
    """
    if assembly is None:
        assembly = assemble_map(source, target, holo_map, z, scheme)
    gamma_source = connection_coefficients(assembly.source_jet)
    gamma_target = connection_coefficients(assembly.target_jet)

    base = _frame_hessian(assembly, _hessian_chart(assembly.map_jet, gamma_target, gamma_source))
    shifted_source = gamma_source - ((1.0 - t_source) / 2.0) * assembly.source_point.torsion
    shifted_target = gamma_target - ((1.0 - t_target) / 2.0) * assembly.target_point.torsion
    moved = _frame_hessian(
        assembly, _hessian_chart(assembly.map_jet, shifted_target, shifted_source)
    )
    sym_base = 0.5 * (base + base.swapaxes(1, 2))
    sym_moved = 0.5 * (moved + moved.swapaxes(1, 2))
    return float(np.max(np.abs(sym_moved - sym_base)))


# ---------------------------------------------------------------------------
# scalar inequalities


def young_split_slack(a: np.ndarray, b: np.ndarray, tau: float) -> float:
    """Slack of ``|a - b|^2 / 4 >= ((1-tau)|a|^2 + (1-1/tau)|b|^2) / 4``.

    Nonnegative for every ``tau`` in ``(0, inf)`` by the weighted arithmetic
    mean inequality; Frobenius norms throughout.
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise ConfigError(f"the split needs tau in (0, inf), got {tau}")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    diff2 = float(np.sum(np.abs(a - b) ** 2))
    a2 = float(np.sum(np.abs(a) ** 2))
    b2 = float(np.sum(np.abs(b) ** 2))
    return 0.25 * (diff2 - (1.0 - tau) * a2 - (1.0 - 1.0 / tau) * b2)


def singular_square_bound_slack(
    squares: Sequence[float], c1: float, c2: float, n: int
) -> float:
    """Slack of ``-c1 sum(s) + c2 sum(s^2) >= -c1 e + (c2/n) e^2``.

    ``squares`` are the squared singular values of a differential, ``e``
    their sum.  Nonnegative for ``c2 >= 0`` and at most ``n`` values by the
    Cauchy-Schwarz inequality; ``c1`` cancels and is accepted only to keep
    call sites readable.
    """
    squares = np.asarray(squares, dtype=float)
    if squares.size > n:
        raise ConfigError(f"{squares.size} singular values in dimension {n}")
    if np.any(squares < 0):
        raise ConfigError("squared singular values must be nonnegative")
    e = float(np.sum(squares))
    lhs = -c1 * e + c2 * float(np.sum(squares**2))
    rhs = -c1 * e + (c2 / n) * e * e
    return lhs - rhs


def energy_upper_bound(c1: float, c2: float, kappa0: float, r: int, n: int) -> float:
    """The closed-form ceiling ``c1 r n / (kappa0 n + r c2)``."""
    if kappa0 <= 0:
        raise ConfigError(f"the bound needs kappa0 > 0, got {kappa0}")
    if r < 1 or n < 1:
        raise ConfigError("rank and dimension must be at least 1")
    denominator = kappa0 * n + r * c2
    if denominator <= 0:
        raise ConfigError("nonpositive denominator: c2 is too negative")
    return c1 * r * n / denominator


@dataclass(frozen=True)
class SchwarzReport:
    """The differential inequality behind the energy ceiling, at one point."""

    energy: float
    laplacian: float
    rhs: float
    slack: float
    energy_bound: float


def schwarz_inequality_report(
    source: MetricSpec,
    target: MetricSpec,
    holo_map: HoloMap,
    z: np.ndarray,
    c1: float,
    c2: float,
    kappa0: float,
    r: int,
    scheme: JetScheme = DEFAULT_SCHEME,
) -> SchwarzReport:
    """Evaluates ``Delta e >= -c1 e + (kappa0/r + c2/n) e^2`` at ``z``.

    ``r`` is the caller's rank bound for the differential.  The report also
    carries the closed-form ceiling on ``e`` implied by the inequality.
    """
    field = _energy_field(source, target, MapJetEvaluator(holo_map))
    z = np.asarray(z, dtype=complex)
    energy = float(np.real(field(z)))
    laplacian = scalar_laplacian(field, source, z, scheme)
    rhs = -c1 * energy + (kappa0 / r + c2 / source.n) * energy * energy
    return SchwarzReport(
        energy=energy,
        laplacian=laplacian,
        rhs=rhs,
        slack=laplacian - rhs,
        energy_bound=energy_upper_bound(c1, c2, kappa0, r, source.n),
    )


# ---------------------------------------------------------------------------
# the Bismut-connection comparison


@dataclass(frozen=True)
class BismutComparisonReport:
    """Two readings of the comparison bound assembled from t = -1 data.

    ``exact_bound`` rebuilds the tempered source and target contractions
    through the family transforms, which is provably below the Laplacian.
    ``printed_bound`` keeps the literal coefficients of the published
    display; its target block disagrees with the exact route, and the
    deviations record by how much at this point.
    """

    tau: float
    laplacian: float
    exact_bound: float
    exact_margin: float
    exact_holds: bool
    printed_bound: float
    printed_margin: float
    printed_holds: bool
    source_display_deviation: float
    target_display_deviation: float


def bismut_comparison_report(
    source: MetricSpec,
    target: MetricSpec,
    holo_map: HoloMap,
    z: np.ndarray,
    tau: float,
    scheme: JetScheme = DEFAULT_SCHEME,
) -> BismutComparisonReport:
    if not (tau > 0 and math.isfinite(tau)):
        raise ConfigError(f"the comparison needs tau in (0, inf), got {tau}")
    tau_source = TauParam(tau, "source")
    tau_target = TauParam(tau, "target")

    assembly = assemble_map(source, target, holo_map, z, scheme)
    f = assembly.jac_frame
    xi = np.einsum("ai,bi->ab", f, np.conj(f))
    xi_norm2 = float(np.real(np.sum(xi * np.conj(xi))))

    member_g = gauduchon_family(assembly.source_point, -1.0)
    member_h = gauduchon_family(assembly.target_point, -1.0)

    def contract_ric(matrix: np.ndarray) -> float:
        return float(np.real(np.einsum("qp,ap,aq->", matrix, f, np.conj(f))))

    # exact route: tempered Ricci and tempered bisectional term, both
    # reassembled from the t = -1 tensors
    src_exact = contract_ric(ric_tau_from_family(member_g, tau_source))
    tgt_exact = rbc_tau_from_family(member_h, xi, tau_target) * xi_norm2
    exact_bound = src_exact - tgt_exact

    # printed route, source block: fractions as published (they agree with
    # the exact route)
    trace1, trace2, trace3, trace4 = family_ricci_traces(member_g)
    bt = member_g.torsion
    conj_bt = np.conj(bt)
    s_a = np.einsum("ikr,ilr->kl", bt, conj_bt)
    s_c = np.einsum("irl,irk->kl", bt, conj_bt)
    eta = np.einsum("iri->r", bt)
    x = np.einsum("krl,r->kl", bt, np.conj(eta))
    ric_printed = (
        -trace2 / 3.0
        + 2.0 * trace1 / 3.0
        + (trace3 + trace4) / 3.0
        + s_a
        + 2.0 * hermitian_part(x) / 3.0
        - ((3.0 + tau) / (12.0 * tau)) * s_c
    )
    src_printed = contract_ric(ric_printed)

    # printed route, target block: the published lines carry the opposite
    # sign on the curvature pair and a different torsion-square coefficient
    bth = member_h.torsion
    brh = member_h.curvature
    conj_bth = np.conj(bth)
    rb = float(np.real(np.einsum("ijkl,ij,kl->", brh, xi, xi)))
    rb_alt = float(np.real(np.einsum("ilkj,ij,kl->", brh, xi, xi)))
    s1 = float(np.real(np.einsum("ikr,jlr,ij,kl->", bth, conj_bth, xi, xi)))
    s2 = float(np.real(np.einsum("irl,jrk,ij,kl->", bth, conj_bth, xi, xi)))
    s3 = float(np.real(np.einsum("irj,lrk,ij,kl->", bth, conj_bth, xi, xi)))
    tgt_printed = (rb + 2.0 * rb_alt) / 3.0 + (
        s2 + 2.0 * s3 + (1.0 - (1.0 - tau) / 12.0) * s1
    ) / 3.0
    printed_bound = src_printed + tgt_printed

    field = _energy_field(source, target, MapJetEvaluator(holo_map))
    laplacian = scalar_laplacian(field, source, assembly.z, scheme)

    exact_margin = laplacian - exact_bound
    printed_margin = laplacian - printed_bound
    return BismutComparisonReport(
        tau=tau,
        laplacian=laplacian,
        exact_bound=exact_bound,
        exact_margin=exact_margin,
        exact_holds=exact_margin >= -1e-8,
        printed_bound=printed_bound,
        printed_margin=printed_margin,
        printed_holds=printed_margin >= -1e-8,
        source_display_deviation=abs(src_printed - src_exact),
        target_display_deviation=abs(tgt_printed - (-tgt_exact)),
    )
