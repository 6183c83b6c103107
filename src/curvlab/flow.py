"""Tempered Hermitian curvature flow on gridded charts.

The flow moves a metric by

    dg/dt = -Ric2 - (1/4) (1 - 1/tau) Q - g,

with ``Ric2`` the second Chern Ricci, ``Q`` the torsion square as a chart
form, and ``tau`` a source-role tempering parameter.  At ``tau = 1`` the
torsion term drops and the flat metric contracts exactly like ``e^{-t}``.

One velocity, :func:`thcf_velocity`, serves a single point's jet and a whole
grid's batched jet alike.  It is ``-Ric^tau - g`` with ``Ric^tau`` from
:func:`~curvlab.functionals.ric_tau` on the jet's
:class:`~curvlab.chern.ChernPoint`, which reads chart tensors only, so no
frame is built on the grid.

Space is a regular lattice over a rectangle in chart coordinates (axes
ordered ``x1, y1, x2, y2``), dimensions one and two.  Spatial derivatives
are second-order central differences; the boundary either stays frozen at
its initial values (interior-only updates, one-sided second-order
differences at the edges) or wraps periodically.  Time stepping is
explicit: plain Euler (``flow_step(..., "euler")``) or the default
two-stage explicit trapezoid, whose second-order accuracy the closed-form
flat solution actually requires; its predictor's velocity is formed only
at the nodes a step moves (:attr:`GridBox.updated`).  A diffusion bound,
``dt <= 0.2 h^2 g_min``, keeps each substep within the explicit stability
limit of the grid's second differences.  A step takes the least power-of-two
count of substeps that the bound admits at its start field, derived from
``g_min`` alone before any velocity is evaluated; only a bound, positivity
or finiteness failure later in the step halves the substeps again and
restarts it.  A start field whose velocity is not finite fails at once.
Each field computes its velocity once: the velocity of a step's end field
serves both the step's diagnostics row and the first stage of the next step
(first same as last).  The grid's ``g_min``, the ``max_velocity``
diagnostic and the inverse metric are the closed-form eigenvalues and
inverses of :mod:`~curvlab.tensor_core` for the grid's dimensions one and
two, so no node pays a LAPACK call.

The pointwise comparison inequality

    (d/dt - Laplacian) tr >= -(kappa0/n) tr^2 + tr   (as a residual LHS - RHS)

is evaluated at time zero, at points ``(..., n)``, directly from metric
specifications, with the time derivative taken through the flow velocity and
the Laplacian through the jet scheme, so no time stepping enters the check.
The trace is the Schwarz energy of the identity map ``(M, g) -> (M, h)``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import IO

import numpy as np

from .chern import ChernPoint
from .errors import ConfigError, NumericalError
from .functionals import TauParam, ric_tau
from .metric_model import DEFAULT_SCHEME, JetScheme, MetricJet, MetricSpec, Var, metric_value
from .schwarz import HoloMap, energy_and_laplacian, pointwise_report
from .tensor_core import hermitian_eigenvalues, hermitian_part, metric_inverse_up

__all__ = [
    "thcf_velocity",
    "GridBox",
    "GridMetricField",
    "DiagnosticsRow",
    "FlowState",
    "init_flow",
    "flow_step",
    "run_flow",
    "write_diagnostics_csv",
    "ParabolicResidualReport",
    "parabolic_schwarz_residual",
    "supersolution_slacks",
]


def thcf_velocity(jet: MetricJet, tau: TauParam) -> np.ndarray:
    """Flow velocity ``-Ric^tau - g`` as a Hermitian chart form at every point of ``jet``.

    The jet may hold one point or a grid of them (:meth:`GridMetricField.jets`).
    ``Ric^tau`` is :func:`~curvlab.functionals.ric_tau` of the jet's chart
    tensors, so no frame is built.
    """
    return hermitian_part(-ric_tau(ChernPoint.from_jet(jet), tau) - jet.g)


@dataclass(frozen=True)
class GridBox:
    """A lattice over a centered square box in chart coordinates."""

    center: tuple[complex, ...]
    half_width: float
    resolution: int
    boundary: str = "frozen"

    def __post_init__(self) -> None:
        if not 0 < self.half_width < np.inf:
            raise ConfigError(f"grid half width must be positive and finite, got {self.half_width}")
        if not np.isfinite(self.center).all():
            raise ConfigError(f"grid center must be finite, got {self.center}")
        if self.resolution < 3:
            raise ConfigError(f"grid needs at least 3 nodes per axis, got {self.resolution}")
        if self.boundary not in ("frozen", "periodic"):
            raise ConfigError(f"unknown boundary policy '{self.boundary}'")
        corners = [abs(x) + self.half_width for c in self.center for x in (c.real, c.imag)]
        if not np.isfinite([self.spacing, *corners]).all():
            raise ConfigError(f"grid half width {self.half_width} overflows the grid coordinates")

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.resolution - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Chart coordinates of every node, shape ``(resolution,) * 2n + (n,)``.

        Built once per box and read-only, since every field on the box shares it.
        """
        w = self.half_width
        axes = []
        for c in self.center:
            axes += [np.linspace(c.real - w, c.real + w, self.resolution),
                     np.linspace(c.imag - w, c.imag + w, self.resolution)]
        mesh = np.array(np.meshgrid(*axes, indexing="ij"))
        points = np.ascontiguousarray(np.moveaxis(mesh[0::2] + 1j * mesh[1::2], 0, -1))
        points.flags.writeable = False
        return points

    @property
    def updated(self) -> tuple[slice, ...]:
        """Index of the nodes a flow step moves: the interior if frozen, all nodes if periodic."""
        return (slice(1, -1) if self.boundary == "frozen" else slice(None),) * (2 * self.n)


def _differences(f: np.ndarray, h: float, lead: int, axes: int, periodic: bool) -> np.ndarray:
    """``out[a]``: the central difference of ``f`` along its axis ``lead + a``, for ``a < axes``.

    Edges wrap if ``periodic``, else take the one-sided second-order difference.
    """
    out = np.empty((axes,) + f.shape, dtype=f.dtype)
    for a in range(axes):
        shape = (math.prod(f.shape[:lead + a]), f.shape[lead + a], -1)  # outer, r, inner
        x, dx = f.reshape(shape), out[a].reshape(shape)
        np.subtract(x[:, 2:], x[:, :-2], out=dx[:, 1:-1])
        if periodic:
            np.subtract(x[:, 1], x[:, -1], out=dx[:, 0])
            np.subtract(x[:, 0], x[:, -2], out=dx[:, -1])
            dx /= 2.0 * h
        else:
            dx[:, 1:-1] /= 2.0 * h
            dx[:, 0] = (-1.5 / h) * x[:, 0] + (2.0 / h) * x[:, 1] + (-0.5 / h) * x[:, 2]
            dx[:, -1] = (0.5 / h) * x[:, -3] + (-2.0 / h) * x[:, -2] + (1.5 / h) * x[:, -1]
    return out


class GridMetricField:
    """Hermitian metric values on every node of a :class:`GridBox`.

    The smallest eigenvalue, the inverse metric and the flow velocity are
    computed once and kept, so ``values`` must not be changed in place after
    construction.
    """

    def __init__(self, box: GridBox, values: np.ndarray) -> None:
        n = box.n
        expected = (box.resolution,) * (2 * n) + (n, n)
        values = np.asarray(values, dtype=complex)
        if values.shape != expected:
            raise ConfigError(f"grid values have shape {values.shape}, expected {expected}")
        self.box = box
        self.values = values
        if not np.isfinite(values).all():
            raise NumericalError("grid metric is not finite everywhere")
        self._min_eigenvalue = float(hermitian_eigenvalues(hermitian_part(values)).min())
        if not self._min_eigenvalue > 0:
            raise NumericalError("grid metric is not positive definite everywhere")
        self._velocity: tuple[TauParam, np.ndarray] | None = None
        self._g_up: np.ndarray | None = None

    @classmethod
    def from_spec(cls, spec: MetricSpec, box: GridBox) -> "GridMetricField":
        if spec.n != box.n:
            raise ConfigError(f"metric has dimension {spec.n}, box has {box.n}")
        if spec.n > 2:
            raise ConfigError("grid flow supports dimensions 1 and 2")
        # a node on a singularity gives a non-finite value, which __init__ rejects
        # first; a finite node outside the region is a configuration error
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = metric_value(spec, box.nodes)
        outside = ~spec.region.contains(box.nodes)
        if outside.any() and np.isfinite(values).all():
            raise ConfigError(f"grid node {box.nodes[outside][0]} lies outside the "
                              f"{spec.region.kind} region of {spec.name}")
        return cls(box, values)

    def jets(self) -> MetricJet:
        """The metric jet at every node, one batch index per node.

        Its derivatives are the grid's central differences:
        ``d_g[..., i, k, l] = d_i g_kl`` and ``dd_g[..., i, j, k, l] = d_i dbar_j g_kl``.
        Frozen edge nodes take one-sided second-order differences; periodic ones wrap.
        """
        box = self.box
        h, axes, periodic = box.spacing, 2 * box.n, box.boundary == "periodic"
        # real derivatives along the grid axes x_1, y_1, x_2, ... on axis 0
        first = _differences(self.values, h, 0, axes, periodic)
        d = 0.5 * (first[0::2] - 1j * first[1::2])  # d[i] = d_i g
        second = _differences(d, h, 1, axes, periodic)
        dd = 0.5 * (second[0::2] + 1j * second[1::2])  # dd[j, i] = dbar_j d_i g
        return MetricJet(box.nodes, self.values, np.ascontiguousarray(np.moveaxis(d, 0, -3)),
                         np.ascontiguousarray(np.moveaxis(dd, (1, 0), (-4, -3))))

    def min_eigenvalue(self) -> float:
        return self._min_eigenvalue

    def velocity(self, tau: TauParam) -> np.ndarray:
        """The flow velocity at every node, computed at most once per ``tau``.

        The velocity of a step's end field serves its diagnostics row and the
        first stage of the next step.  Of the Chern record it forms, the field
        keeps only the inverse metric (:meth:`g_up`): the record's tensors
        take several times the memory of the values.  A velocity that is not
        finite is a :class:`NumericalError`.
        """
        if self._velocity is None or self._velocity[0] != tau:
            point, velocity = self._velocity_at(tau, ())
            self._velocity, self._g_up = (tau, velocity), point.g_up
        return self._velocity[1]

    def _velocity_at(self, tau: TauParam, nodes: tuple) -> tuple[ChernPoint, np.ndarray]:
        """The Chern record and the velocity at ``nodes`` only, formed on contiguous copies.

        Strided complex loops can round otherwise.  Overflow raises no numpy warning; a
        velocity that is not finite is a :class:`NumericalError` naming its first node.
        """
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            jet = self.jets()
            point = ChernPoint(*(np.ascontiguousarray(a[nodes])
                                 for a in (jet.point, jet.g, jet.d_g, jet.dd_g)))
            velocity = thcf_velocity(point, tau)
        finite = np.isfinite(velocity).all(axis=(-2, -1))
        if not finite.all():
            raise NumericalError(f"flow velocity is not finite at node {point.point[~finite][0]}")
        return point, velocity

    def g_up(self) -> np.ndarray:
        """The raised-index inverse of the values: the velocity's, else formed here and kept."""
        if self._g_up is None:
            self._g_up = metric_inverse_up(self.values)
        return self._g_up

    def max_velocity(self, tau: TauParam) -> float:
        """The largest eigenvalue modulus of the velocity, a diagnostic only."""
        return float(np.abs(hermitian_eigenvalues(self.velocity(tau))).max())

    def seam_jumps(self) -> tuple[float, float]:
        """Largest wrap-around and largest interior neighbour difference of the values.

        The first is ``|g(first node) - g(last node)|`` over every grid axis and
        node line, the jump a periodic boundary differences across; the second
        the same entry modulus between adjacent nodes inside the grid.
        """
        seam = interior = 0.0
        for axis in range(2 * self.box.n):
            wrap = np.take(self.values, 0, axis) - np.take(self.values, -1, axis)
            seam = max(seam, float(np.abs(wrap).max()))
            interior = max(interior, float(np.abs(np.diff(self.values, axis=axis)).max()))
        return seam, interior


@dataclass(frozen=True)
class DiagnosticsRow:
    """One completed step; ``substeps`` were kept after ``rejected`` fallback halvings."""

    step: int
    time: float
    dt: float
    min_eigenvalue: float
    max_velocity: float
    sup_trace: float | None
    substeps: int
    rejected: int


@dataclass(frozen=True)
class FlowState:
    """Metric field, flow time, and the diagnostics trail."""

    time: float
    field: GridMetricField
    tau: TauParam
    reference_values: np.ndarray | None
    history: tuple[DiagnosticsRow, ...]

    @property
    def steps_taken(self) -> int:
        return len(self.history)


def init_flow(
    spec: MetricSpec,
    box: GridBox,
    tau: TauParam,
    reference: MetricSpec | None = None,
) -> FlowState:
    field = GridMetricField.from_spec(spec, box)
    reference_values = None
    if reference is not None:
        reference_values = GridMetricField.from_spec(reference, box).values
    return FlowState(
        time=0.0, field=field, tau=tau, reference_values=reference_values, history=()
    )


def _sup_trace(state: FlowState, field: GridMetricField) -> float | None:
    if state.reference_values is None:
        return None
    traces = np.real(np.einsum("...kl,...kl->...", field.g_up(), state.reference_values))
    return float(traces.max())


class _StepRejected(Exception):
    pass


def _apply_update(field: GridMetricField, update: np.ndarray) -> np.ndarray:
    """The values of ``field`` plus ``update`` at the nodes a step moves."""
    new_values = field.values.copy()
    new_values[field.box.updated] += update
    return new_values


# relative allowance of the guard: a step sitting exactly on the limit is not
# rejected for the last-bit rounding of 0.2 h^2 g_min
_GUARD_ROUNDING = 1.0 + 4.0 * np.finfo(float).eps


def _guard_rejects(field: GridMetricField, dt: float) -> bool:
    """Whether the diffusion bound ``dt <= 0.2 h^2 g_min`` rejects ``dt`` at ``field``."""
    return dt > _GUARD_ROUNDING * (0.2 * field.box.spacing**2 * field.min_eigenvalue())


def _substep(field: GridMetricField, tau: TauParam, dt: float, method: str) -> GridMetricField:
    """One substep from ``field``; the predictor's velocity is formed at the moved nodes only."""
    updated = field.box.updated
    try:
        if _guard_rejects(field, dt):
            raise _StepRejected
        v1 = field.velocity(tau)[updated]
        if method == "euler":
            update = dt * v1
        else:
            predictor = GridMetricField(field.box, _apply_update(field, dt * v1))
            if _guard_rejects(predictor, dt):
                raise _StepRejected
            update = 0.5 * dt * (v1 + predictor._velocity_at(tau, updated)[1])
        return GridMetricField(field.box, _apply_update(field, update))
    except NumericalError as exc:
        raise _StepRejected from exc


def _doubled(pieces: int, dt: float) -> int:
    if pieces >= 2**8:
        raise NumericalError(f"flow step dt={dt} still rejected after 8 halvings")
    return 2 * pieces


def flow_step(state: FlowState, dt: float, method: str = "heun") -> FlowState:
    """Advance the flow by ``dt``; appends one diagnostics row.

    The default method is the two-stage explicit trapezoid; ``"euler"``
    selects the one-stage update.  The step is split into the least power of
    two of equal substeps that the diffusion bound ``dt <= 0.2 h^2 g_min``
    admits at the start field, the count a halve-on-rejection loop would
    reach; it needs ``g_min`` only, so no velocity is evaluated for it.  If
    the bound, positivity or a finite velocity still rejects a later stage,
    the substeps are halved again and the step restarts from its start field,
    up to 2^8 substeps in all; a start field whose velocity is not finite is a
    :class:`NumericalError` at once.  The row records the substeps kept, the
    halvings this fallback took, and ``max_velocity``, the largest velocity
    eigenvalue modulus at the end field.
    """
    if not 0 < dt < np.inf:
        raise ConfigError(f"time step must be positive and finite, got {dt}")
    if method not in ("heun", "euler"):
        raise ConfigError(f"unknown stepping method '{method}'")
    start = state.field
    pieces = 1
    # each smaller count fails the bound on this same g_min
    while _guard_rejects(start, dt / pieces):
        pieces = _doubled(pieces, dt)
    # the first substep reads this velocity; no substep count mends a non-finite one
    start.velocity(state.tau)
    rejected = 0
    while True:
        sub = dt / pieces
        field = start
        try:
            for _ in range(pieces):
                field = _substep(field, state.tau, sub, method)
            break
        except _StepRejected:
            pieces = _doubled(pieces, dt)
            rejected += 1
    row = DiagnosticsRow(
        step=state.steps_taken + 1,
        time=state.time + dt,
        dt=dt,
        min_eigenvalue=field.min_eigenvalue(),
        max_velocity=field.max_velocity(state.tau),
        sup_trace=_sup_trace(state, field),
        substeps=pieces,
        rejected=rejected,
    )
    return replace(
        state, time=state.time + dt, field=field, history=state.history + (row,)
    )


def run_flow(state: FlowState, dt: float, steps: int, method: str = "heun") -> FlowState:
    if steps < 1:
        raise ConfigError(f"need at least one step, got {steps}")
    for _ in range(steps):
        state = flow_step(state, dt, method)
    return state


def write_diagnostics_csv(state: FlowState, stream: IO[str]) -> None:
    """One row per completed step: the diagnostics trail as CSV."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["step", "time", "dt", "min_eigenvalue", "max_velocity", "sup_trace"])
    for row in state.history:
        writer.writerow(
            [
                row.step,
                f"{row.time:.12g}",
                f"{row.dt:.12g}",
                f"{row.min_eigenvalue:.12g}",
                f"{row.max_velocity:.12g}",
                "" if row.sup_trace is None else f"{row.sup_trace:.12g}",
            ]
        )


# ---------------------------------------------------------------------------
# the pointwise comparison inequality


def supersolution_slacks(
    velocity: np.ndarray, point: ChernPoint, tau: TauParam
) -> tuple[np.ndarray, np.ndarray]:
    """Slack of ``dg/dt >= -Ric^tau - g`` in eigenvalue and trace order, one entry per point.

    Matrix inequalities can be read on forms or on traces; both slacks are
    returned (eigenvalue first) and both vanish identically for the THCF
    velocity, where the tempered form is exactly the negated velocity.
    ``velocity`` ``(..., n, n)`` carries the batch axes of ``point``.
    """
    defect = hermitian_part(velocity + ric_tau(point, tau) + point.g)
    eigenvalue_slack = hermitian_eigenvalues(defect)[..., 0]
    trace_slack = np.real(np.einsum("...kl,...kl->...", point.g_up, defect))
    return eigenvalue_slack[()], trace_slack[()]


@dataclass(frozen=True)
class ParabolicResidualReport:
    """LHS - RHS of the trace comparison inequality, one entry per point."""

    residual: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    trace: np.ndarray
    dt_trace: np.ndarray
    laplacian: np.ndarray
    eigenvalue_slack: np.ndarray
    trace_slack: np.ndarray
    preconditions_hold: np.ndarray


def parabolic_schwarz_residual(
    source: MetricSpec,
    reference: MetricSpec,
    z: np.ndarray,
    tau: TauParam,
    kappa0: float,
    scheme: JetScheme = DEFAULT_SCHEME,
    velocity: np.ndarray | None = None,
) -> ParabolicResidualReport:
    """Evaluates the comparison inequality for the flow at time zero at the points ``z``.

    The time derivative of ``tr(h)`` comes from the velocity,
    ``d/dt tr = -g^{pl} g^{kq} h_{kl} v_{pq}``; the trace and its Laplacian
    come from one stencil jet of the identity map's energy into the reference.
    ``velocity`` defaults to the THCF velocity at the points; any Hermitian chart
    forms ``(..., n, n)`` may be supplied, e.g. zero for a static flow.  ``kappa0``
    should certify ``RBC^tau(reference) <= -kappa0``; the supersolution
    precondition is asserted numerically and reported, never fatal.  Fields
    have the batch axes of ``z`` ``(..., n)``.  One :class:`~curvlab.chern.ChernPoint`
    serves the velocity, the Laplacian and the slacks, and no frame is built.
    """
    if not 0 <= kappa0 < np.inf:
        raise ConfigError(f"kappa0 must be finite and nonnegative, got {kappa0}")
    if source.n != reference.n:
        raise ConfigError("source and reference metrics must share a dimension")
    point = ChernPoint.from_spec(source, z)
    if velocity is None:
        velocity = thcf_velocity(point, tau)
    else:
        velocity = np.asarray(velocity, dtype=complex)
        if velocity.shape != point.g.shape:
            raise ConfigError(f"velocity has shape {velocity.shape}, expected {point.g.shape}")

    identity = HoloMap(tuple(Var(k) for k in range(source.n)), source.n)
    trace, laplacian = energy_and_laplacian(source, reference, identity, point, scheme)
    h = metric_value(reference, point.point)
    dt_trace = -np.real(np.einsum("...pl,...kq,...kl,...pq->...", point.g_up, point.g_up, h,
                                  velocity))

    lhs = dt_trace - laplacian
    rhs = -(kappa0 / source.n) * trace * trace + trace
    eigenvalue_slack, trace_slack = supersolution_slacks(velocity, point, tau)
    return pointwise_report(
        ParabolicResidualReport, residual=lhs - rhs, lhs=lhs, rhs=rhs, trace=trace,
        dt_trace=dt_trace, laplacian=laplacian, eigenvalue_slack=eigenvalue_slack,
        trace_slack=trace_slack,
        preconditions_hold=(eigenvalue_slack >= -1e-8) & (trace_slack >= -1e-8),
    )
