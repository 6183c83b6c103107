"""Tempered Hermitian curvature flow on gridded charts.

The flow moves a metric by

    dg/dt = -Ric2 - (1/4) (1 - 1/tau) Q - g,

with ``Ric2`` the second Chern Ricci, ``Q`` the torsion square as a chart
form, and ``tau`` a source-role tempering parameter.  At ``tau = 1`` the
torsion term drops and the flat metric contracts exactly like ``e^{-t}``.

One velocity, :func:`thcf_velocity`, serves a single point's jet and a whole
grid's batched jet alike.  It is ``-Ric^tau - g`` with ``Ric^tau`` from
:func:`~curvlab.functionals.ric_tau_chart`, the function behind
:func:`~curvlab.functionals.ric_tau`, on the jet's chart tensors, so no frame
is built on the grid.

Space is a regular lattice over a rectangle in chart coordinates (axes
ordered ``x1, y1, x2, y2``), dimensions one and two.  Spatial derivatives
are second-order central differences; the boundary either stays frozen at
its initial values (interior-only updates) or wraps periodically.  Time
stepping is explicit: plain Euler (:func:`step_euler`) or the default
two-stage explicit trapezoid, whose second-order accuracy the closed-form
flat solution actually requires.  A parabolic CFL-style guard,
``dt <= 0.2 h^2 g_min / v_max``, keeps each substep from outrunning the
grid.  A step takes the least power-of-two count of substeps that the
guard admits at its start field; only a guard or positivity failure later
in the step halves the substeps again and restarts it.  Each field computes
its velocity once: the velocity of a step's end field serves both the
step's diagnostics row and the first stage of the next step (first same as
last).

The pointwise comparison inequality

    (d/dt - Laplacian) tr >= -(kappa0/n) tr^2 + tr   (as a residual LHS - RHS)

is evaluated at time zero, at points ``(..., n)``, directly from metric
specifications, with the time derivative taken through the flow velocity and
the Laplacian through the jet scheme, so no time stepping enters the check.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property
from typing import IO

import numpy as np

from .chern import ChernPoint, chern_curvature, chern_torsion, connection_coefficients
from .errors import ConfigError, NumericalError
from .functionals import TauParam, ric_tau, ric_tau_chart
from .metric_model import DEFAULT_SCHEME, JetScheme, MetricJet, MetricSpec, metric_jet, metric_value
from .schwarz import pointwise_report, scalar_laplacian
from .tensor_core import hermitian_part, metric_inverse_up

__all__ = [
    "thcf_velocity",
    "GridBox",
    "GridMetricField",
    "DiagnosticsRow",
    "FlowState",
    "init_flow",
    "flow_step",
    "step_euler",
    "run_flow",
    "write_diagnostics_csv",
    "ParabolicResidualReport",
    "parabolic_schwarz_residual",
    "supersolution_slacks",
]


def thcf_velocity(jet: MetricJet, tau: TauParam) -> np.ndarray:
    """Flow velocity ``-Ric^tau - g`` as a Hermitian chart form at every point of ``jet``.

    The jet may hold one point or a grid of them (:meth:`GridMetricField.jets`).
    ``Ric^tau`` is :func:`~curvlab.functionals.ric_tau_chart` of the jet's
    chart tensors, so no frame is built.
    """
    gamma = connection_coefficients(jet)
    ric = ric_tau_chart(chern_torsion(jet, gamma), chern_curvature(jet, gamma), jet.g, jet.g_up,
                        tau)
    return hermitian_part(-ric - jet.g)


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
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([mesh[2 * k] + 1j * mesh[2 * k + 1] for k in range(self.n)], axis=-1)
        points.flags.writeable = False
        return points


def _axis_derivative(values: np.ndarray, spacing: float, axis: int, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * spacing)
    return np.gradient(values, spacing, axis=axis, edge_order=2)


class GridMetricField:
    """Hermitian metric values on every node of a :class:`GridBox`.

    The smallest eigenvalue and the flow velocity are computed once and kept,
    so ``values`` must not be changed in place after construction.
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
        self._min_eigenvalue = float(np.linalg.eigvalsh(hermitian_part(values)).min())
        if not self._min_eigenvalue > 0:
            raise NumericalError("grid metric is not positive definite everywhere")
        self._velocity: tuple[TauParam, np.ndarray, float] | None = None

    @classmethod
    def from_spec(cls, spec: MetricSpec, box: GridBox) -> "GridMetricField":
        if spec.n != box.n:
            raise ConfigError(f"metric has dimension {spec.n}, box has {box.n}")
        if spec.n > 2:
            raise ConfigError("grid flow supports dimensions 1 and 2")
        # a node on a singularity gives a non-finite value, which __init__ rejects
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = metric_value(spec, box.nodes)
        return cls(box, values)

    def node_points(self) -> np.ndarray:
        return self.box.nodes

    def jets(self) -> MetricJet:
        """The metric jet at every node, one batch index per node.

        Its derivatives are the grid's central differences:
        ``d_g[..., i, k, l] = d_i g_kl`` and ``dd_g[..., i, j, k, l] = d_i dbar_j g_kl``.
        """
        periodic = self.box.boundary == "periodic"
        h = self.box.spacing
        grid_axes = range(2 * self.box.n)
        # real derivatives along the grid axes x_1, y_1, x_2, ... stacked as axis -3
        real_first = np.stack(
            [_axis_derivative(self.values, h, a, periodic) for a in grid_axes], axis=-3
        )
        d = 0.5 * (real_first[..., 0::2, :, :] - 1j * real_first[..., 1::2, :, :])
        real_second = np.stack([_axis_derivative(d, h, a, periodic) for a in grid_axes], axis=-3)
        dd = 0.5 * (real_second[..., 0::2, :, :] + 1j * real_second[..., 1::2, :, :])
        return MetricJet(self.box.nodes, self.values, d, dd)

    def min_eigenvalue(self) -> float:
        return self._min_eigenvalue

    def velocity(self, tau: TauParam) -> tuple[np.ndarray, float]:
        """The flow velocity at every node and its largest eigenvalue modulus ``v_max``.

        Both are computed at most once per ``tau``: the velocity of a step's end
        field serves its diagnostics row and the first stage of the next step.
        """
        if self._velocity is None or self._velocity[0] != tau:
            velocity = thcf_velocity(self.jets(), tau)
            v_max = float(np.abs(np.linalg.eigvalsh(velocity)).max())
            self._velocity = (tau, velocity, v_max)
        return self._velocity[1], self._velocity[2]

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


def _sup_trace(state: FlowState, values: np.ndarray) -> float | None:
    if state.reference_values is None:
        return None
    x = metric_inverse_up(values)
    traces = np.real(np.einsum("...kl,...kl->...", x, state.reference_values))
    return float(traces.max())


class _StepRejected(Exception):
    pass


def _apply_update(field: GridMetricField, update: np.ndarray) -> np.ndarray:
    new_values = field.values.copy()
    if field.box.boundary == "frozen":
        region = (slice(1, -1),) * (2 * field.box.n)
        new_values[region] += update[region]
    else:
        new_values += update
    return new_values


# relative allowance of the guard: a step sitting exactly on the limit is not
# rejected for the last-bit rounding of 0.2 h^2 g_min / v_max
_GUARD_ROUNDING = 1.0 + 4.0 * np.finfo(float).eps


def _guard_rejects(field: GridMetricField, v_max: float, dt: float) -> bool:
    """Whether the parabolic guard ``dt <= 0.2 h^2 g_min / v_max`` rejects ``dt`` at ``field``."""
    return v_max > 0 and dt > _GUARD_ROUNDING * (
        0.2 * field.box.spacing**2 * field.min_eigenvalue() / v_max
    )


def _guarded_velocity(field: GridMetricField, tau: TauParam, dt: float) -> np.ndarray:
    velocity, v_max = field.velocity(tau)
    if _guard_rejects(field, v_max, dt):
        raise _StepRejected
    return velocity


def _substep(field: GridMetricField, tau: TauParam, dt: float, method: str) -> GridMetricField:
    v1 = _guarded_velocity(field, tau, dt)
    if method == "euler":
        update = dt * v1
    else:
        predictor_values = _apply_update(field, dt * v1)
        try:
            predictor = GridMetricField(field.box, predictor_values)
        except NumericalError as exc:
            raise _StepRejected from exc
        v2 = _guarded_velocity(predictor, tau, dt)
        update = 0.5 * dt * (v1 + v2)
    try:
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
    two of equal substeps that the parabolic guard admits at the start field,
    the count a halve-on-rejection loop would reach.  If the guard or
    positivity still rejects a later stage, the substeps are halved again and
    the step restarts from its start field, up to 2^8 substeps in all.  The
    row records the substeps kept and the halvings this fallback took.
    """
    if not 0 < dt < np.inf:
        raise ConfigError(f"time step must be positive and finite, got {dt}")
    if method not in ("heun", "euler"):
        raise ConfigError(f"unknown stepping method '{method}'")
    start = state.field
    _, v_max = start.velocity(state.tau)
    pieces = 1
    # each smaller count fails the guard on this same velocity and g_min
    while _guard_rejects(start, v_max, dt / pieces):
        pieces = _doubled(pieces, dt)
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
    _, max_velocity = field.velocity(state.tau)
    row = DiagnosticsRow(
        step=state.steps_taken + 1,
        time=state.time + dt,
        dt=dt,
        min_eigenvalue=field.min_eigenvalue(),
        max_velocity=max_velocity,
        sup_trace=_sup_trace(state, field.values),
        substeps=pieces,
        rejected=rejected,
    )
    return replace(
        state, time=state.time + dt, field=field, history=state.history + (row,)
    )


def step_euler(state: FlowState, dt: float) -> FlowState:
    """One explicit Euler step; first-order accurate in ``dt``."""
    return flow_step(state, dt, method="euler")


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
    eigenvalue_slack = np.linalg.eigvalsh(defect)[..., 0]
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
    come from one stencil jet of the trace field.  ``velocity`` defaults to
    the THCF velocity at the points; any Hermitian chart forms
    ``(..., n, n)`` may be supplied, e.g. zero for a static flow.  ``kappa0``
    should certify ``RBC^tau(reference) <= -kappa0``; the supersolution
    precondition is asserted numerically and reported, never fatal.  Fields
    have the batch axes of ``z`` ``(..., n)``.
    """
    if kappa0 < 0:
        raise ConfigError(f"kappa0 must be nonnegative, got {kappa0}")
    if source.n != reference.n:
        raise ConfigError("source and reference metrics must share a dimension")
    z = np.asarray(z, dtype=complex)
    jet = metric_jet(source, z)
    point = ChernPoint.from_jet(jet)
    if velocity is None:
        velocity = thcf_velocity(jet, tau)
    else:
        velocity = np.asarray(velocity, dtype=complex)
        if velocity.shape != jet.g.shape:
            raise ConfigError(f"velocity has shape {velocity.shape}, expected {jet.g.shape}")

    def trace_field(w: np.ndarray) -> np.ndarray:
        xw = metric_inverse_up(metric_value(source, w))
        return np.einsum("...kl,...kl->...", xw, metric_value(reference, w))

    value, laplacian = scalar_laplacian(trace_field, source, jet, scheme)
    trace = np.real(value)
    h = metric_value(reference, z)
    dt_trace = -np.real(np.einsum("...pl,...kq,...kl,...pq->...", jet.g_up, jet.g_up, h, velocity))

    lhs = dt_trace - laplacian
    rhs = -(kappa0 / source.n) * trace * trace + trace
    eigenvalue_slack, trace_slack = supersolution_slacks(velocity, point, tau)
    return pointwise_report(
        ParabolicResidualReport, residual=lhs - rhs, lhs=lhs, rhs=rhs, trace=trace,
        dt_trace=dt_trace, laplacian=laplacian, eigenvalue_slack=eigenvalue_slack,
        trace_slack=trace_slack,
        preconditions_hold=(eigenvalue_slack >= -1e-8) & (trace_slack >= -1e-8),
    )
