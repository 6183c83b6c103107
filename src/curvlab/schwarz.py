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

Map components are expression trees; their exact first and second
derivatives come from one fold of the map's one compiled program over
holomorphically seeded jets, hyper-dual numbers, so the only finite
differencing anywhere is the outer Laplacian.

The reports, the Bismut comparison among them, take points ``(..., n)``, one
entry per point equal to that of a one-point call; the map fold checks that
shape.  A call assembles the map jet and the two metric jets once, as
``ChernPoint`` records whose connection coefficients and tensors are formed
on first read, and differentiates one stencil jet of the energy
density, whose map folds are first-order, dual numbers, and check only
values and Jacobians: its centre value
is the energy, its mixed second derivative traced with ``g^{-1}`` the Laplacian.
That jet is :func:`energy_and_laplacian`, which the flow's comparison calls
with the identity map, whose energy is the trace ``tr_g h`` it differentiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .chern import ChernPoint, form_pairing, frame_traces
from .errors import ConfigError, NumericalError, require
from .functionals import TauParam, pointwise_report
from .gauduchon import (
    bisectional_display,
    gauduchon_family,
    rbc_tau_from_family,
    ric_tau_from_family,
    ricci_display,
)
from .metric_model import (
    DEFAULT_SCHEME,
    Expr,
    JetScheme,
    MetricJet,
    MetricSpec,
    TreeProgram,
    check_footprint,
    compile_trees,
    complex_jet2,
    is_holomorphic,
    max_var_index,
    metric_value,
    parse_expr,
)
from .tensor_core import metric_inverse_up

__all__ = [
    "HoloMap",
    "MapJet",
    "MapAssembly",
    "assemble_map",
    "hessian_tensors",
    "torsion_difference_frame",
    "energy_and_laplacian",
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

_IMAGE_OUTSIDE = "image point {} of {} leaves the target region"


@dataclass(frozen=True)
class MapJet:
    """Value, Jacobian ``J[..., a, i] = d_i f^a``, and holomorphic Hessian.

    The arrays carry the leading batch axes of the points, C-contiguous.
    """

    value: np.ndarray
    jacobian: np.ndarray
    hessian: np.ndarray


@dataclass(frozen=True)
class HoloMap:
    """A holomorphic map given by one expression tree per target coordinate.

    Its exact derivatives come from one program of the components, compiled
    on first use; a call folds it over jets (:meth:`TreeProgram.jets`) at a
    whole stack of points, such as a stencil: first-order ones for values and
    Jacobians, holomorphically seeded second-order ones for the Hessian too.
    """

    components: tuple[Expr, ...]
    n_source: int

    def __post_init__(self) -> None:
        if self.n_source < 1:
            raise ConfigError("map needs a positive source dimension")
        if not self.components:
            raise ConfigError("map needs at least one component")
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

    @cached_property
    def program(self) -> TreeProgram:
        """The component trees, compiled, subtrees shared."""
        return compile_trees(self.components)

    def first(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values ``(..., n_target)`` and Jacobians ``(..., n_target, n_source)``.

        One fold of first-order jets, dual numbers under the plain seed, whose
        finite values and Jacobians are the bytes of :meth:`jet`'s.
        """
        return tuple(self._fold(z, 1))

    def jet(self, z: np.ndarray) -> MapJet:
        """Value, Jacobian and Hessian at the points ``z`` ``(..., n_source)``."""
        return MapJet(*self._fold(z, 2))

    def _fold(self, z: np.ndarray, order: int) -> list[np.ndarray]:
        """The parts up to ``order`` from one fold over the points as one ``(P, n)`` stack.

        Order 1 folds first-order jets under the plain seed, order 2
        holomorphically seeded second-order ones.  A point of another shape
        is a :class:`ConfigError`; the first part, in order, that is not
        finite is a :class:`NumericalError` naming its first point.
        """
        z = np.asarray(z, dtype=complex)
        n = self.n_source
        if z.shape[-1:] != (n,):
            raise ConfigError(f"the map takes points of shape (..., {n}), got {z.shape}")
        flat = z.reshape(-1, n)
        parts = []
        for what, part in zip(("value", "Jacobian", "Hessian"),
                              self.program.jets(flat, holomorphic=order == 2, order=order)):
            require(np.isfinite(part).all(tuple(range(1, part.ndim))), NumericalError,
                    "map {} is not finite at {}", what, flat)
            part = np.ascontiguousarray(np.moveaxis(part, -1, 1))  # target axis first
            parts.append(part.reshape(z.shape[:-1] + part.shape[1:]))
        return parts


@dataclass(frozen=True)
class MapAssembly:
    """A map's jet and both metrics' Chern data at the points and images, with their batch axes."""

    map_jet: MapJet
    source_point: ChernPoint
    target_point: ChernPoint

    @cached_property
    def jac_frame(self) -> np.ndarray:
        """The map's differential between the two unitary frames, formed on first read."""
        source_inverse = self.source_point.frame.L_inv  # the source's failures are named first
        return (np.swapaxes(self.target_point.frame.L, -1, -2) @ self.map_jet.jacobian
                @ np.swapaxes(source_inverse, -1, -2))


def assemble_map(
    source: MetricSpec,
    target: MetricSpec,
    holo_map: HoloMap,
    z: np.ndarray,
) -> MapAssembly:
    """Map jet, metric jets and Chern data at the points ``z`` ``(..., n)``.

    The first image point outside the target region is a :class:`ConfigError`.
    """
    if holo_map.n_source != source.n:
        raise ConfigError(
            f"map expects source dimension {holo_map.n_source}, metric has {source.n}"
        )
    if holo_map.n_target != target.n:
        raise ConfigError(
            f"map has {holo_map.n_target} components, target metric has dimension {target.n}"
        )
    z = np.asarray(z, dtype=complex)
    map_jet = holo_map.jet(z)
    image = map_jet.value
    require(target.region.contains(image), ConfigError, _IMAGE_OUTSIDE, image, z)
    source_point = ChernPoint.from_spec(source, z)  # the source's failures are named first
    return MapAssembly(map_jet, source_point, ChernPoint.from_spec(target, image))


def _hessian_chart(
    map_jet: MapJet, gamma_target: np.ndarray, gamma_source: np.ndarray
) -> np.ndarray:
    jac = map_jet.jacobian
    return (
        map_jet.hessian
        + np.einsum("...gra,...gi,...rj->...aij", gamma_target, jac, jac)
        - np.einsum("...ijp,...ap->...aij", gamma_source, jac)
    )


def _frame_hessian(assembly: MapAssembly, chart: np.ndarray) -> np.ndarray:
    lh = assembly.target_point.frame.L
    lg_inv = assembly.source_point.frame.L_inv
    return np.einsum("...aA,...Ii,...Jj,...aij->...AIJ", lh, lg_inv, lg_inv, chart)


def hessian_tensors(assembly: MapAssembly) -> np.ndarray:
    """Chern Hessian of the map in frame indices, ``(..., a, i, j)``."""
    chart = _hessian_chart(assembly.map_jet, assembly.target_point.gamma,
                           assembly.source_point.gamma)
    return _frame_hessian(assembly, chart)


def _symmetric_and_skew(hessian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parts of a Hessian symmetric and antisymmetric in its two lower slots."""
    swapped = np.swapaxes(hessian, -2, -1)
    return 0.5 * (hessian + swapped), 0.5 * (hessian - swapped)


def torsion_difference_frame(assembly: MapAssembly) -> np.ndarray:
    """``T_h(df, df) - df(T_g)`` in frames; twice the skew Hessian."""
    f = assembly.jac_frame
    th = assembly.target_point.torsion_frame
    tg = assembly.source_point.torsion_frame
    return (np.einsum("...gra,...gi,...rj->...aij", th, f, f)
            - np.einsum("...ijp,...ap->...aij", tg, f))


def _pushforward(f: np.ndarray) -> np.ndarray:
    """The pushforward form ``xi[..., a, b] = sum_i f[a, i] conj(f[b, i])``."""
    return np.einsum("...ai,...bi->...ab", f, np.conj(f))


def _ricci_term(ricci: np.ndarray, f: np.ndarray) -> np.ndarray:
    """A source Ricci form on the differential, ``sum Ric[q, p] f[a, p] conj(f[a, q])``."""
    return np.real(np.einsum("...qp,...ap,...aq->...", ricci, f, np.conj(f)))


def _energy(source: MetricSpec, target: MetricSpec, w: np.ndarray, value: np.ndarray,
            jacobian: np.ndarray):
    """``g^{ij} h_{ab}(f) d_i f^a conj(d_j f^b)`` at points ``w`` with images ``value``."""
    x = metric_inverse_up(metric_value(source, w))
    h = metric_value(target, value)
    return np.einsum("...ij,...ab,...ai,...bj->...", x, h, jacobian, np.conj(jacobian))


def energy_density(
    source: MetricSpec, target: MetricSpec, holo_map: HoloMap, z: np.ndarray
) -> np.ndarray:
    """``|df|^2`` at the points ``z`` ``(..., n)``: trace of the pulled-back target metric.

    The first image point outside the target region is a :class:`ConfigError`.
    """
    z = np.asarray(z, dtype=complex)
    value, jacobian = holo_map.first(z)
    require(target.region.contains(value), ConfigError, _IMAGE_OUTSIDE, value, z)
    return np.real(_energy(source, target, z, value, jacobian))[()]


def energy_and_laplacian(source: MetricSpec, target: MetricSpec, holo_map: HoloMap,
                         point: MetricJet, scheme: JetScheme = DEFAULT_SCHEME):
    """Energy density and its Chern Laplacian ``g^{ij} d_i dbar_j e`` at the source jet's points.

    Both from one stencil jet: its footprint outside the source region, or its images outside
    the target's, is a :class:`ConfigError`, a Laplacian not finite a :class:`NumericalError`."""
    def field(w: np.ndarray) -> np.ndarray:
        value, jacobian = holo_map.first(w)
        check_footprint(target.region, value, point.point, scheme, "the image of the stencil",
                        "the target's")
        return _energy(source, target, w, value, jacobian)

    stencil = complex_jet2(field, point.point, scheme, region=source.region)
    laplacian = np.real(np.einsum("...ij,...ij->...", point.g_up, stencil.dd))
    require(np.isfinite(laplacian), NumericalError, "the Laplacian is not finite at {}",
            point.point)
    return np.real(stencil.value), laplacian


@dataclass(frozen=True)
class LaplacianIdentityReport:
    """Both sides of the energy-density expansion, one entry per point."""

    energy: np.ndarray
    laplacian: np.ndarray
    hessian_square: np.ndarray
    symmetric_square: np.ndarray
    skew_square: np.ndarray
    ricci_term: np.ndarray
    target_term: np.ndarray
    assembled: np.ndarray
    relative_residual: np.ndarray
    skew_residual: np.ndarray


def laplacian_identity_report(
    source: MetricSpec,
    target: MetricSpec,
    holo_map: HoloMap,
    z: np.ndarray,
    scheme: JetScheme = DEFAULT_SCHEME,
) -> LaplacianIdentityReport:
    """Both sides of the expansion at the points ``z`` ``(..., n)``.

    Each field has the batch axes of ``z``; the entry of a point equals the
    field of a one-point call at that point.
    """
    assembly = assemble_map(source, target, holo_map, z)
    frame_hessian = hessian_tensors(assembly)
    sym, skew = _symmetric_and_skew(frame_hessian)
    tensor_axes = (-3, -2, -1)
    difference = torsion_difference_frame(assembly)
    skew_residual = np.max(np.abs(2.0 * skew - difference), axis=tensor_axes)

    hessian_square = np.sum(np.abs(frame_hessian) ** 2, axis=tensor_axes)
    symmetric_square = np.sum(np.abs(sym) ** 2, axis=tensor_axes)
    skew_square = np.sum(np.abs(skew) ** 2, axis=tensor_axes)

    f = assembly.jac_frame
    ricci_term = _ricci_term(frame_traces(assembly.source_point.curvature_frame).ric2, f)
    xi = _pushforward(f)[..., None, :, :]
    target_term = np.real(form_pairing(assembly.target_point.curvature_frame, xi, xi)[..., 0])
    assembled = hessian_square + ricci_term - target_term

    energy, laplacian = energy_and_laplacian(source, target, holo_map, assembly.source_point,
                                             scheme)
    relative_residual = np.abs(laplacian - assembled) / np.maximum(1.0, np.abs(laplacian))
    return pointwise_report(
        LaplacianIdentityReport, energy=energy, laplacian=laplacian,
        hessian_square=hessian_square, symmetric_square=symmetric_square, skew_square=skew_square,
        ricci_term=ricci_term, target_term=target_term, assembled=assembled,
        relative_residual=relative_residual, skew_residual=skew_residual,
    )


def connection_invariance_residual(
    source: MetricSpec,
    target: MetricSpec,
    holo_map: HoloMap,
    z: np.ndarray,
    t_source: float,
    t_target: float,
    assembly: MapAssembly | None = None,
) -> float:
    """Drift of the symmetric map Hessian under a change of connections.

    Both connections are moved along the canonical family,
    ``Gamma_t = Gamma - ((1 - t)/2) T``; the symmetric part must not move.
    The largest drift over all points of ``z`` is returned.
    """
    if assembly is None:
        assembly = assemble_map(source, target, holo_map, z)
    base = hessian_tensors(assembly)
    shifted_source = (assembly.source_point.gamma
                      - ((1.0 - t_source) / 2.0) * assembly.source_point.torsion)
    shifted_target = (assembly.target_point.gamma
                      - ((1.0 - t_target) / 2.0) * assembly.target_point.torsion)
    moved = _frame_hessian(
        assembly, _hessian_chart(assembly.map_jet, shifted_target, shifted_source)
    )
    return float(np.max(np.abs(_symmetric_and_skew(moved)[0] - _symmetric_and_skew(base)[0])))


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


def _check_finite(**parameters: float) -> None:
    """:class:`ConfigError` naming the first parameter that is not a finite number."""
    for name, value in parameters.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def singular_square_bound_slack(
    squares: Sequence[float], c1: float, c2: float, n: int
) -> float:
    """Slack of ``-c1 sum(s) + c2 sum(s^2) >= -c1 e + (c2/n) e^2``.

    ``squares`` are the squared singular values of a differential, ``e``
    their sum.  Nonnegative for ``c2 >= 0`` and at most ``n`` values by the
    Cauchy-Schwarz inequality; ``c1`` cancels and is accepted only to keep
    call sites readable.
    """
    if not n >= 1:
        raise ConfigError(f"the dimension must be at least 1, got {n}")
    _check_finite(c1=c1, c2=c2)
    squares = np.asarray(squares, dtype=float)
    if squares.size > n:
        raise ConfigError(f"{squares.size} singular values in dimension {n}")
    if not np.all((squares >= 0) & (squares < math.inf)):
        raise ConfigError("squared singular values must be finite and nonnegative")
    e = float(np.sum(squares))
    lhs = -c1 * e + c2 * float(np.sum(squares**2))
    rhs = -c1 * e + (c2 / n) * e * e
    return lhs - rhs


def energy_upper_bound(c1: float, c2: float, kappa0: float, r: int, n: int) -> float:
    """The closed-form ceiling ``c1 r n / (kappa0 n + r c2)``."""
    _check_finite(c1=c1, c2=c2, kappa0=kappa0)
    if kappa0 <= 0:
        raise ConfigError(f"the bound needs kappa0 > 0, got {kappa0}")
    if not (r >= 1 and n >= 1):
        raise ConfigError("rank and dimension must be at least 1")
    denominator = kappa0 * n + r * c2
    if denominator <= 0:
        raise ConfigError("nonpositive denominator: c2 is too negative")
    return c1 * r * n / denominator


@dataclass(frozen=True)
class SchwarzReport:
    """The differential inequality behind the energy ceiling, one entry per point."""

    energy: np.ndarray
    laplacian: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    energy_bound: np.ndarray


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
    """Evaluates ``Delta e >= -c1 e + (kappa0/r + c2/n) e^2`` at the points ``z``.

    ``r`` is the caller's rank bound for the differential.  The report also
    carries the closed-form ceiling on ``e`` implied by the inequality.
    Fields have the batch axes of ``z`` ``(..., n)``.
    """
    energy_bound = energy_upper_bound(c1, c2, kappa0, r, source.n)
    assembly = assemble_map(source, target, holo_map, z)
    energy, laplacian = energy_and_laplacian(source, target, holo_map, assembly.source_point,
                                             scheme)
    rhs = -c1 * energy + (kappa0 / r + c2 / source.n) * energy * energy
    return pointwise_report(
        SchwarzReport, energy=energy, laplacian=laplacian, rhs=rhs, slack=laplacian - rhs,
        energy_bound=np.full(np.shape(energy), energy_bound),
    )


# ---------------------------------------------------------------------------
# the Bismut-connection comparison


@dataclass(frozen=True)
class BismutComparisonReport:
    """Two readings of the comparison bound assembled from t = -1 data, one entry per point.

    ``exact_bound`` rebuilds the tempered source and target contractions
    through the family transforms, which is provably below the Laplacian.
    ``printed_bound`` keeps the literal coefficients of the published
    display; its target block disagrees with the exact route, and the
    deviations record by how much at each point.
    """

    tau: np.ndarray
    laplacian: np.ndarray
    exact_bound: np.ndarray
    exact_margin: np.ndarray
    exact_holds: np.ndarray
    printed_bound: np.ndarray
    printed_margin: np.ndarray
    printed_holds: np.ndarray
    source_display_deviation: np.ndarray
    target_display_deviation: np.ndarray


def bismut_comparison_report(
    source: MetricSpec,
    target: MetricSpec,
    holo_map: HoloMap,
    z: np.ndarray,
    tau: float,
    scheme: JetScheme = DEFAULT_SCHEME,
) -> BismutComparisonReport:
    """Both readings of the comparison bound, ``tau`` in ``(0, inf)``, at the points ``z``."""
    tau_source = TauParam(tau, "source")
    tau_target = TauParam(tau, "target")

    assembly = assemble_map(source, target, holo_map, z)
    f = assembly.jac_frame
    xi = _pushforward(f)
    xi_norm2 = np.real(np.sum(xi * np.conj(xi), axis=(-2, -1)))

    member_g = gauduchon_family(assembly.source_point, -1.0)
    member_h = gauduchon_family(assembly.target_point, -1.0)

    # exact route: tempered Ricci and tempered bisectional term, both
    # reassembled from the t = -1 tensors
    src_exact = _ricci_term(ric_tau_from_family(member_g, tau_source), f)
    tgt_exact = rbc_tau_from_family(member_h, xi, tau_target) * xi_norm2
    exact_bound = src_exact - tgt_exact

    # printed route, source block: fractions as published (they agree with
    # the exact route)
    ric_printed = ricci_display(
        member_g, (-1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 1.0, 2.0 / 3.0, -(3.0 + tau) / (12.0 * tau))
    )
    src_printed = _ricci_term(ric_printed, f)

    # printed route, target block: the published lines carry the opposite
    # sign on the curvature pair and a different torsion-square coefficient
    weights = (1.0 / 3.0, 2.0 / 3.0, (1.0 - (1.0 - tau) / 12.0) / 3.0, 1.0 / 3.0, 2.0 / 3.0)
    tgt_printed = bisectional_display(member_h, xi, weights) * xi_norm2
    printed_bound = src_printed + tgt_printed

    laplacian = energy_and_laplacian(source, target, holo_map, assembly.source_point, scheme)[1]
    exact_margin = laplacian - exact_bound
    printed_margin = laplacian - printed_bound
    return pointwise_report(
        BismutComparisonReport, tau=np.full(np.shape(laplacian), tau), laplacian=laplacian,
        exact_bound=exact_bound, exact_margin=exact_margin, exact_holds=exact_margin >= -1e-8,
        printed_bound=printed_bound, printed_margin=printed_margin,
        printed_holds=printed_margin >= -1e-8,
        source_display_deviation=np.abs(src_printed - src_exact),
        target_display_deviation=np.abs(tgt_printed + tgt_exact),
    )
