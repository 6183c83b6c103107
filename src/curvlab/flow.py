"""Tempered Hermitian curvature flow on gridded charts.

The flow moves a metric by

    dg/dt = -Ric2 - (1/4) (1 - 1/tau) Q - g,

with ``Ric2`` the second Chern Ricci, ``Q`` the torsion square as a chart
form, and ``tau`` a source-role tempering parameter.  At ``tau = 1`` the
torsion term drops and the flat metric contracts exactly like ``e^{-t}``.

One velocity, :func:`thcf_velocity`, serves a single point's jet and a whole
grid's batched jet alike; it is assembled from the formulas of
:mod:`curvlab.chern`, with the torsion square as a chart form, so no frame is
built on the grid.

Space is a regular lattice over a rectangle in chart coordinates (axes
ordered ``x1, y1, x2, y2``), dimensions one and two.  Spatial derivatives
are second-order central differences; the boundary either stays frozen at
its initial values (interior-only updates) or wraps periodically.  Time
stepping is explicit: plain Euler (:func:`step_euler`) or the default
two-stage explicit trapezoid, whose second-order accuracy the closed-form
flat solution actually requires.  A parabolic CFL-style guard rejects steps
that outrun the grid; rejected steps are retried with halved substeps.

The pointwise comparison inequality

    (d/dt - Laplacian) tr >= -(kappa0/n) tr^2 + tr   (as a residual LHS - RHS)

is evaluated at time zero directly from metric specifications, with the
time derivative taken through the flow velocity and the Laplacian through
the jet scheme, so no time stepping enters the check.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from .chern import (
    ChernPoint,
    chern_curvature,
    chern_torsion,
    connection_coefficients,
    q_squared_chart,
    second_ricci,
)
from .errors import ConfigError, NumericalError
from .functionals import TauParam, ric_tau
from .metric_model import DEFAULT_SCHEME, JetScheme, MetricJet, MetricSpec, metric_jet, metric_value
from .schwarz import scalar_laplacian
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
    No frame is built: the torsion square enters as its chart form.  ``tau = 1``
    returns ``-Ric2 - g`` with no torsion arithmetic at all.
    """
    gamma = connection_coefficients(jet)
    velocity = -second_ricci(jet.g_up, chern_curvature(jet, gamma)) - jet.g
    if tau.value != 1.0:
        q_chart = q_squared_chart(chern_torsion(jet, gamma), jet.g, jet.g_up)
        velocity = velocity - tau.source_weight * q_chart
    return hermitian_part(velocity)


@dataclass(frozen=True)
class GridBox:
    """A lattice over a centered square box in chart coordinates."""

    center: tuple[complex, ...]
    half_width: float
    resolution: int
    boundary: str = "frozen"

    def __post_init__(self) -> None:
        if self.half_width <= 0:
            raise ConfigError(f"grid half width must be positive, got {self.half_width}")
        if self.resolution < 3:
            raise ConfigError(f"grid needs at least 3 nodes per axis, got {self.resolution}")
        if self.boundary not in ("frozen", "periodic"):
            raise ConfigError(f"unknown boundary policy '{self.boundary}'")

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.resolution - 1)


def _axis_derivative(values: np.ndarray, spacing: float, axis: int, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * spacing)
    return np.gradient(values, spacing, axis=axis, edge_order=2)


class GridMetricField:
    """Hermitian metric values on every node of a :class:`GridBox`."""

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
        if not self.min_eigenvalue() > 0:
            raise NumericalError("grid metric is not positive definite everywhere")

    @classmethod
    def from_spec(cls, spec: MetricSpec, box: GridBox) -> "GridMetricField":
        if spec.n != box.n:
            raise ConfigError(f"metric has dimension {spec.n}, box has {box.n}")
        if spec.n > 2:
            raise ConfigError("grid flow supports dimensions 1 and 2")
        # a node on a singularity gives a non-finite value, which __init__ rejects
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = metric_value(spec, cls._node_points(box))
        return cls(box, values)

    @staticmethod
    def _node_points(box: GridBox) -> np.ndarray:
        w = box.half_width
        axes = []
        for c in box.center:
            axes += [np.linspace(c.real - w, c.real + w, box.resolution),
                     np.linspace(c.imag - w, c.imag + w, box.resolution)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([mesh[2 * k] + 1j * mesh[2 * k + 1] for k in range(box.n)], axis=-1)

    def node_points(self) -> np.ndarray:
        return self._node_points(self.box)

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
        return MetricJet(self.node_points(), self.values, d, dd, exact=False)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(hermitian_part(self.values)).min())


@dataclass(frozen=True)
class DiagnosticsRow:
    step: int
    time: float
    dt: float
    min_eigenvalue: float
    max_velocity: float
    sup_trace: float | None


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
    x = np.conj(np.linalg.inv(values))
    traces = np.real(np.einsum("...kl,...kl->...", x, state.reference_values))
    return float(traces.max())


class _StepRejected(Exception):
    pass


def _interior(box: GridBox) -> tuple[slice, ...]:
    return tuple(slice(1, -1) for _ in range(2 * box.n))


def _apply_update(field: GridMetricField, update: np.ndarray) -> np.ndarray:
    new_values = field.values.copy()
    if field.box.boundary == "frozen":
        region = _interior(field.box)
        new_values[region] += update[region]
    else:
        new_values += update
    return new_values


def _guarded_velocity(field: GridMetricField, tau: TauParam, dt: float) -> np.ndarray:
    velocity = thcf_velocity(field.jets(), tau)
    g_min = field.min_eigenvalue()
    v_max = float(np.abs(np.linalg.eigvalsh(velocity)).max())
    if v_max > 0:
        limit = 0.2 * field.box.spacing**2 * g_min / v_max
        if dt > limit:
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


def flow_step(state: FlowState, dt: float, method: str = "heun") -> FlowState:
    """Advance the flow by ``dt``; appends one diagnostics row.

    The default method is the two-stage explicit trapezoid; ``"euler"``
    selects the one-stage update.  A step rejected by the parabolic guard or
    by positivity is retried as halved substeps, up to eight halvings.
    """
    if dt <= 0:
        raise ConfigError(f"time step must be positive, got {dt}")
    if method not in ("heun", "euler"):
        raise ConfigError(f"unknown stepping method '{method}'")
    pieces = 1
    while True:
        sub = dt / pieces
        field = state.field
        try:
            for _ in range(pieces):
                field = _substep(field, state.tau, sub, method)
            break
        except _StepRejected:
            pieces *= 2
            if pieces > 2**8:
                raise NumericalError(
                    f"flow step dt={dt} still rejected after 8 halvings"
                ) from None
    velocity = thcf_velocity(field.jets(), state.tau)
    row = DiagnosticsRow(
        step=state.steps_taken + 1,
        time=state.time + dt,
        dt=dt,
        min_eigenvalue=field.min_eigenvalue(),
        max_velocity=float(np.abs(np.linalg.eigvalsh(velocity)).max()),
        sup_trace=_sup_trace(state, field.values),
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
) -> tuple[float, float]:
    """Slack of ``dg/dt >= -Ric^tau - g`` in eigenvalue and trace order.

    Matrix inequalities can be read on forms or on traces; both slacks are
    returned (eigenvalue first) and both vanish identically for the THCF
    velocity, where the tempered form is exactly the negated velocity.
    """
    defect = hermitian_part(velocity + ric_tau(point, tau) + point.g)
    eigenvalue_slack = float(np.linalg.eigvalsh(defect).min())
    trace_slack = float(np.real(np.einsum("kl,kl->", point.g_up, defect)))
    return eigenvalue_slack, trace_slack


@dataclass(frozen=True)
class ParabolicResidualReport:
    """LHS - RHS of the trace comparison inequality at one point."""

    residual: float
    lhs: float
    rhs: float
    trace: float
    dt_trace: float
    laplacian: float
    eigenvalue_slack: float
    trace_slack: float
    preconditions_hold: bool


def parabolic_schwarz_residual(
    source: MetricSpec,
    reference: MetricSpec,
    z: np.ndarray,
    tau: TauParam,
    kappa0: float,
    scheme: JetScheme = DEFAULT_SCHEME,
    velocity: np.ndarray | None = None,
) -> ParabolicResidualReport:
    """Evaluates the comparison inequality for the flow at time zero.

    The time derivative of ``tr(h)`` comes from the velocity,
    ``d/dt tr = -g^{pl} g^{kq} h_{kl} v_{pq}``, the Laplacian from the jet
    scheme applied to the trace field.  ``velocity`` defaults to the THCF
    velocity at the point; any Hermitian chart form may be supplied, e.g.
    zero for a static flow.  ``kappa0`` should certify
    ``RBC^tau(reference) <= -kappa0``; the supersolution precondition is
    asserted numerically and reported, never fatal.
    """
    if kappa0 < 0:
        raise ConfigError(f"kappa0 must be nonnegative, got {kappa0}")
    if source.n != reference.n:
        raise ConfigError("source and reference metrics must share a dimension")
    z = np.asarray(z, dtype=complex)
    jet = metric_jet(source, z, scheme)
    point = ChernPoint.from_jet(jet)
    if velocity is None:
        velocity = thcf_velocity(jet, tau)
    else:
        velocity = np.asarray(velocity, dtype=complex)
        if velocity.shape != (source.n, source.n):
            raise ConfigError(
                f"velocity has shape {velocity.shape}, expected {(source.n, source.n)}"
            )

    h = metric_value(reference, z)
    x = point.g_up
    trace = float(np.real(np.einsum("kl,kl->", x, h)))
    dt_trace = -float(np.real(np.einsum("pl,kq,kl,pq->", x, x, h, velocity)))

    def trace_field(w: np.ndarray) -> np.ndarray:
        xw = metric_inverse_up(metric_value(source, w))
        return np.einsum("...kl,...kl->...", xw, metric_value(reference, w))

    laplacian = scalar_laplacian(trace_field, source, z, scheme)

    lhs = dt_trace - laplacian
    rhs = -(kappa0 / source.n) * trace * trace + trace
    eigenvalue_slack, trace_slack = supersolution_slacks(velocity, point, tau)
    return ParabolicResidualReport(
        residual=lhs - rhs,
        lhs=lhs,
        rhs=rhs,
        trace=trace,
        dt_trace=dt_trace,
        laplacian=laplacian,
        eigenvalue_slack=eigenvalue_slack,
        trace_slack=trace_slack,
        preconditions_hold=eigenvalue_slack >= -1e-8 and trace_slack >= -1e-8,
    )
