"""Flow module oracles.

Frozen reference values used below:

* flat metric: velocity is exactly -I for every tau, so each node follows
  g(t) = e^{-t} I in closed form.
* poincare_polydisk(1) at 0 with tau = 1: Ric^(2) = -2 g and g(0) = 1, so
  the velocity is +1.
* fixture F1 at 0: Ric^(2) = 0.4 I (diagonal entry 0.4, not -0.1),
  Q = diag(8, 0), g = I, so at tau = inf the velocity is
  diag(-3.4, -1.4).
* poincare_polydisk(2) against a flat reference at (0.5, 0): the trace is
  (1 - 0.25)^2 + 1 = 1.5625.
* poincare_polydisk(1), reference = itself, tau = 1, kappa0 = 2 at any
  interior point: velocity = +g, trace field is identically 1, so
  LHS = RHS = -1 and the comparison residual vanishes.
"""

import dataclasses
import io
import math
import statistics
import time

import numpy as np
import pytest

from curvlab import flow, metric_model
from curvlab.chern import ChernPoint
from curvlab.errors import ConfigError, NumericalError
from curvlab.flow import (
    GridBox,
    GridMetricField,
    _sup_trace,
    flow_step,
    init_flow,
    parabolic_schwarz_residual,
    run_flow,
    supersolution_slacks,
    thcf_velocity,
    write_diagnostics_csv,
)
from curvlab.functionals import TauParam, ric_tau
from curvlab.metric_model import (MetricJet, Var, builtin_metric, fixture, load_metric,
                                  metric_jet, metric_value)
from curvlab.schwarz import HoloMap, laplacian_identity_report
from curvlab.tensor_core import hermitian_eigenvalues, hermitian_part, metric_inverse_up


def source_tau(value):
    return TauParam(value, "source")


def assert_node_by_node(grid, tau) -> None:
    """The grid velocity equals each node's own, to 1e-13 of its largest entry."""
    v = thcf_velocity(grid, tau)
    for idx in np.ndindex(*grid.g.shape[:-2]):
        node = MetricJet(grid.point[idx], grid.g[idx], grid.d_g[idx], grid.dd_g[idx])
        one = thcf_velocity(node, tau)
        gap = np.abs(v[idx] - one).max()
        assert gap <= 1e-13 * np.abs(one).max(), f"node {idx}: off by {gap:.3e}"


def oracle_derivative(values, spacing, axis, periodic):
    """One grid axis's central difference by ``np.roll`` (periodic) or ``np.gradient`` (frozen)."""
    if periodic:
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * spacing)
    return np.gradient(values, spacing, axis=axis, edge_order=2)


def oracle_jets(field):
    """``(d_g, dd_g)`` of ``field`` by per-axis ``oracle_derivative`` and ``np.stack``."""
    periodic = field.box.boundary == "periodic"
    h = field.box.spacing
    axes = range(2 * field.box.n)
    real_first = np.stack([oracle_derivative(field.values, h, a, periodic) for a in axes], axis=-3)
    d = 0.5 * (real_first[..., 0::2, :, :] - 1j * real_first[..., 1::2, :, :])
    real_second = np.stack([oracle_derivative(d, h, a, periodic) for a in axes], axis=-3)
    dd = 0.5 * (real_second[..., 0::2, :, :] + 1j * real_second[..., 1::2, :, :])
    return d, dd


def median_s(run, repeats: int = 60) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class TestVelocity:
    def test_flat_is_minus_identity(self):
        spec = builtin_metric("flat", 2)
        jet = metric_jet(spec, np.array([0.2, -0.3 + 0.1j]))
        for tau in (source_tau(0.7), source_tau(1.0), source_tau(math.inf)):
            v = thcf_velocity(jet, tau)
            assert np.allclose(v, -np.eye(2), atol=1e-12)

    def test_poincare_disk_at_origin(self):
        spec = builtin_metric("poincare_polydisk", 1)
        jet = metric_jet(spec, np.array([0.0j]))
        v = thcf_velocity(jet, source_tau(1.0))
        assert abs(v[0, 0] - 1.0) < 1e-12, f"expected +1, got {v[0, 0]}"

    def test_fixture_one_full_tempering(self):
        # Ric^(2) = 0.4 I at the origin, so the (1, 1bar) entry is
        # -0.4 - 0.25 * 8 - 1 = -3.4 and the (2, 2bar) entry is -1.4.
        jet = metric_jet(fixture("F1"), np.zeros(2, dtype=complex))
        v = thcf_velocity(jet, source_tau(math.inf))
        assert abs(v[0, 0] - (-3.4)) < 1e-10, f"v[0,0] = {v[0, 0]}"
        assert abs(v[1, 1] - (-1.4)) < 1e-10, f"v[1,1] = {v[1, 1]}"

    def test_tau_one_is_untempered(self):
        jet = metric_jet(fixture("F1"), np.array([0.05, -0.02 + 0.04j]))
        point = ChernPoint.from_jet(jet)
        v = thcf_velocity(jet, source_tau(1.0))
        direct = -ric_tau(point, source_tau(1.0)) - jet.g
        assert np.allclose(v, 0.5 * (direct + direct.conj().T), atol=0)

    def test_zero_tau_rejected(self):
        with pytest.raises(ConfigError):
            source_tau(0.0)

    def test_velocity_is_hermitian(self):
        jet = metric_jet(fixture("F3"), np.array([0.6, 0.3 - 0.1j]))
        v = thcf_velocity(jet, source_tau(2.0))
        assert np.allclose(v, v.conj().T, atol=0)


class TestGrid:
    def test_box_validation(self):
        with pytest.raises(ConfigError):
            GridBox((0j,), half_width=0.0, resolution=5)
        with pytest.raises(ConfigError):
            GridBox((0j,), half_width=0.5, resolution=2)
        with pytest.raises(ConfigError):
            GridBox((0j,), half_width=0.5, resolution=5, boundary="absorbing")

    def test_value_shape_checked(self):
        box = GridBox((0j,), half_width=0.5, resolution=5)
        with pytest.raises(ConfigError):
            GridMetricField(box, np.ones((5, 5, 2, 2)))

    def test_positive_definite_enforced(self):
        box = GridBox((0j,), half_width=0.5, resolution=3)
        values = np.tile(np.eye(1, dtype=complex), (3, 3, 1, 1))
        values[1, 1, 0, 0] = -1.0
        with pytest.raises(NumericalError):
            GridMetricField(box, values)

    def test_dimension_limits(self):
        with pytest.raises(ConfigError):
            GridMetricField.from_spec(
                builtin_metric("flat", 3),
                GridBox((0j, 0j, 0j), half_width=0.5, resolution=3),
            )
        with pytest.raises(ConfigError):
            GridMetricField.from_spec(
                builtin_metric("flat", 2), GridBox((0j,), half_width=0.5, resolution=3)
            )

    def test_node_points_layout(self):
        box = GridBox((0.1 + 0.2j,), half_width=0.5, resolution=5)
        points = box.nodes
        assert points.shape == (5, 5, 1)
        assert points[0, 0, 0] == pytest.approx(-0.4 - 0.3j)
        assert points[4, 2, 0] == pytest.approx(0.6 + 0.2j)
        assert box.spacing == pytest.approx(0.25)

    def test_sampled_values_match_spec(self):
        spec = builtin_metric("poincare_polydisk", 1)
        box = GridBox((0.2 + 0j,), half_width=0.1, resolution=5)
        field = GridMetricField.from_spec(spec, box)
        z = field.box.nodes[3, 1]
        assert np.allclose(field.values[3, 1], metric_value(spec, z), atol=1e-14)

    @pytest.mark.parametrize("name", ["F1", "F2"])
    def test_values_equal_node_by_node(self, name):
        spec = fixture(name)
        box = GridBox((0.03 + 0.01j, -0.02j), half_width=0.05, resolution=5)
        field = GridMetricField.from_spec(spec, box)
        points = field.box.nodes
        for idx in np.ndindex(*points.shape[:-1]):
            single = metric_value(spec, points[idx])
            assert np.max(np.abs(field.values[idx] - single)) <= 1e-15 * np.max(np.abs(single))

    def test_non_finite_values_rejected(self):
        box = GridBox((0j,), half_width=0.1, resolution=3)
        values = np.ones((3, 3, 1, 1), dtype=complex)
        values[1, 2] = np.nan
        with pytest.raises(NumericalError, match="not finite"):
            GridMetricField(box, values)
        # a node on hopf's puncture: no warning escapes, the grid is rejected
        with pytest.raises(NumericalError, match="not finite"):
            GridMetricField.from_spec(builtin_metric("hopf", 1), box)

    def test_finite_nodes_outside_the_region_rejected(self):
        box = GridBox((0.93 + 0j,), half_width=0.1, resolution=3)
        with pytest.raises(ConfigError, match=r"grid node \[1.03-0.1j\] lies outside the polydisk"):
            GridMetricField.from_spec(builtin_metric("poincare_polydisk", 1), box)
        # the region is checked before positivity: 1 - |z|^2 is negative off the disk
        shrinking = load_metric({"n": 1, "entries": [["1 - abs2(z1)"]],
                                 "region": {"type": "ball", "radius": 1.0}})
        with pytest.raises(ConfigError, match="outside the ball region"):
            GridMetricField.from_spec(shrinking, GridBox((1.2 + 0j,), half_width=0.1, resolution=3))
        # so is a reference metric's grid
        with pytest.raises(ConfigError, match="outside the polydisk region"):
            init_flow(builtin_metric("flat", 1), box, source_tau(1.0),
                      reference=builtin_metric("poincare_polydisk", 1))

    def test_grid_jets_match_exact_jets(self):
        spec = builtin_metric("poincare_polydisk", 1)
        box = GridBox((0.2 + 0j,), half_width=0.04, resolution=9)
        field = GridMetricField.from_spec(spec, box)
        grid = field.jets()
        center = (4, 4)
        jet = metric_jet(spec, field.box.nodes[center])
        assert np.array_equal(grid.point[center], jet.point)
        assert np.array_equal(grid.g[center], jet.g)
        assert np.allclose(grid.d_g[center], jet.d_g, atol=5e-4), (
            f"first derivative off by {np.abs(grid.d_g[center] - jet.d_g).max()}"
        )
        assert np.allclose(grid.dd_g[center], jet.dd_g, atol=5e-3)

    def test_grid_jets_two_dimensional(self):
        spec = fixture("F1")
        box = GridBox((0.05 + 0j, 0.05 + 0j), half_width=0.04, resolution=7)
        field = GridMetricField.from_spec(spec, box)
        grid = field.jets()
        center = (3, 3, 3, 3)
        jet = metric_jet(spec, field.box.nodes[center])
        assert grid.n == 2
        assert np.allclose(grid.d_g[center], jet.d_g, atol=1e-4)
        assert np.allclose(grid.dd_g[center], jet.dd_g, atol=1e-3)

    def test_flat_jets_vanish_for_both_boundaries(self):
        for boundary in ("frozen", "periodic"):
            box = GridBox((0j,), half_width=0.5, resolution=5, boundary=boundary)
            field = GridMetricField.from_spec(builtin_metric("flat", 1), box)
            grid = field.jets()
            assert np.abs(grid.d_g).max() == 0.0
            assert np.abs(grid.dd_g).max() == 0.0


def extreme_entries(rng, shape):
    """Random complex entries, a tenth of each part a signed zero and a tenth near 1e+-300."""
    parts = []
    for _ in range(2):
        part = rng.standard_normal(shape)
        pick = rng.random(shape)
        part[pick < 0.05] = 0.0
        part[(0.05 <= pick) & (pick < 0.1)] = -0.0
        part[(0.1 <= pick) & (pick < 0.15)] *= 1e300
        part[(0.15 <= pick) & (pick < 0.2)] *= 1e-300
        parts.append(part)
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = parts  # no complex arithmetic, which would sign the zeros anew
    return z


class TestGridDifferences:
    """The grid-jet difference kernel against the ``np.gradient`` / ``np.roll`` route, by bytes.

    Run with ``-s`` to print the grid-jet time per call of both routes on the
    benchmark's F1 (625 nodes) and P1 (1681 nodes) grids.
    """

    @pytest.mark.parametrize("boundary", ["frozen", "periodic"])
    @pytest.mark.parametrize("lead", [0, 1], ids=["values", "d"])
    @pytest.mark.parametrize("n, resolution", [(1, 3), (1, 4), (1, 5), (1, 9), (1, 41),
                                               (2, 3), (2, 4), (2, 5)])
    def test_differences_are_the_oracle_bytes(self, n, resolution, lead, boundary):
        # value-shaped fields (lead 0) and d-shaped ones, with the derivative
        # index first (lead 1); spacing 1e-10 overflows the entries near 1e300
        rng = np.random.default_rng([n, resolution, lead])
        shape = (n,) * lead + (resolution,) * (2 * n) + (n, n)
        f = extreme_entries(rng, shape)
        periodic = boundary == "periodic"
        for h in (0.0371, 1e-10):
            with np.errstate(over="ignore", invalid="ignore"):
                out = flow._differences(f, h, lead, 2 * n, periodic)
                want = [oracle_derivative(f, h, lead + a, periodic) for a in range(2 * n)]
            assert out.shape == (2 * n,) + shape
            for a in range(2 * n):
                assert out[a].tobytes() == want[a].tobytes(), f"h {h}, grid axis {a}"

    @pytest.mark.parametrize("boundary", ["frozen", "periodic"])
    @pytest.mark.parametrize("name, metric, box", [
        ("F1", fixture("F1"), GridBox((0.05, 0.02j), 0.1, 5)),
        ("P1", builtin_metric("poincare_polydisk", 1), GridBox((0.1,), 0.3, 41)),
        ("hopf(2)", builtin_metric("hopf", 2), GridBox((0.3 + 0.1j, 0.2), 0.05, 4)),
    ], ids=["F1", "P1", "hopf2"])
    def test_grid_jets_are_the_oracle_bytes(self, name, metric, box, boundary):
        """Prints the grid-jet time per call of the kernel and of the oracle route."""
        box = dataclasses.replace(box, boundary=boundary)
        field = GridMetricField.from_spec(metric, box)
        jet = field.jets()
        assert jet.point is box.nodes and jet.g is field.values
        for got, want in zip((jet.d_g, jet.dd_g), oracle_jets(field)):
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
        kernel = median_s(field.jets)
        oracle = median_s(lambda: oracle_jets(field))
        nodes = box.resolution ** (2 * box.n)
        print(f"\n{name} {boundary} ({nodes} nodes): grid jets {kernel * 1e3:.3f} ms per call, "
              f"np.gradient/np.roll route {oracle * 1e3:.3f} ms ({oracle / kernel:.2f}x)")


class TestGridVelocity:
    def test_matches_pointwise_velocity(self):
        spec = builtin_metric("poincare_polydisk", 1)
        box = GridBox((0.2 + 0j,), half_width=0.04, resolution=9)
        field = GridMetricField.from_spec(spec, box)
        v = thcf_velocity(field.jets(), source_tau(1.0))
        jet = metric_jet(spec, field.box.nodes[4, 4])
        exact = thcf_velocity(jet, source_tau(1.0))
        assert np.allclose(v[4, 4], exact, atol=5e-3), (
            f"grid velocity off by {np.abs(v[4, 4] - exact).max()}"
        )

    def test_torsion_term_on_grid(self):
        # F1 has nonzero torsion near the origin, so the tempered velocity
        # exercises the frame transform and torsion square on the grid.
        spec = fixture("F1")
        box = GridBox((0.05 + 0j, 0.05 + 0j), half_width=0.04, resolution=7)
        field = GridMetricField.from_spec(spec, box)
        center = (3, 3, 3, 3)
        jet = metric_jet(spec, field.box.nodes[center])
        for tau in (source_tau(0.5), source_tau(math.inf)):
            v = thcf_velocity(field.jets(), tau)
            exact = thcf_velocity(jet, tau)
            assert np.allclose(v[center], exact, atol=5e-3), (
                f"tau={tau.value}: off by {np.abs(v[center] - exact).max()}"
            )


    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, math.inf])
    @pytest.mark.parametrize(
        "metric, center",
        [
            (builtin_metric("poincare_polydisk", 1), (0.2 + 0.1j,)),
            (fixture("F1"), (0.03 + 0.01j, -0.02j)),
        ],
    )
    def test_grid_equals_node_by_node(self, metric, center, tau):
        box = GridBox(center, half_width=0.05, resolution=5, boundary="periodic")
        grid = GridMetricField.from_spec(metric, box).jets()
        assert_node_by_node(grid, source_tau(tau))

    @pytest.mark.parametrize("name, metric, box, tau", [
        ("F1", fixture("F1"), GridBox((0.05, 0.02j), 0.1, 5, "periodic"), 2.0),
        ("P1", builtin_metric("poincare_polydisk", 1), GridBox((0.1,), 0.3, 41, "frozen"), 1.0),
    ], ids=["F1", "P1"])
    def test_grid_velocity_per_node(self, name, metric, box, tau):
        """The grid velocity is the node-by-node one; prints its time per node and the
        Chern tensors' share of it."""
        grid = GridMetricField.from_spec(metric, box).jets()
        assert_node_by_node(grid, source_tau(tau))
        nodes = grid.g.size // metric.n**2
        velocity = median_s(lambda: thcf_velocity(ChernPoint.from_jet(grid), source_tau(tau)))
        point = ChernPoint.from_jet(grid)
        point.g_up
        tensors = median_s(lambda: [ChernPoint.gamma.func(point), ChernPoint.torsion.func(point),
                                    ChernPoint.curvature.func(point)])
        print(f"\n{name} ({nodes} nodes): velocity {velocity / nodes * 1e6:.2f} us per node, "
              f"Chern tensors (gamma, T, R) {tensors / velocity:.0%} of it")

    @pytest.mark.parametrize("boundary", ["frozen", "periodic"])
    def test_node_velocity_does_not_depend_on_the_stack(self, boundary):
        # the 625-node grid contracts with the point axes innermost, a one-node
        # slice with einsum's own layout: the bits must agree
        box = GridBox((0.03 + 0.01j, -0.02j), half_width=0.1, resolution=5, boundary=boundary)
        grid = GridMetricField.from_spec(fixture("F1"), box).jets()
        assert grid.g.shape[:-2] == (5,) * 4
        nodes = np.random.default_rng(18).choice(625, size=5, replace=False)
        for tau in (source_tau(2.0), source_tau(math.inf)):
            v = thcf_velocity(grid, tau)
            for idx in (np.unravel_index(k, (5,) * 4) for k in nodes):
                node = MetricJet(grid.point[idx], grid.g[idx], grid.d_g[idx], grid.dd_g[idx])
                assert v[idx].tobytes() == thcf_velocity(node, tau).tobytes(), idx


class TestStepping:
    def flat_state(self, boundary="periodic", n=1, tau=1.0):
        box = GridBox((0j,) * n, half_width=0.5, resolution=5, boundary=boundary)
        return init_flow(builtin_metric("flat", n), box, source_tau(tau))

    def test_flat_matches_closed_form(self):
        state = run_flow(self.flat_state(), dt=0.01, steps=10)
        assert state.time == pytest.approx(0.1)
        expected = math.exp(-0.1)
        error = np.abs(state.field.values[..., 0, 0] - expected).max()
        assert error <= 1e-4, f"flat flow error {error}"
        assert error <= 1e-5  # the two-stage default is second order

    def test_euler_is_first_order(self):
        state = self.flat_state()
        for _ in range(10):
            state = flow_step(state, 0.01, "euler")
        error = abs(state.field.values[2, 2, 0, 0] - math.exp(-0.1))
        assert 1e-4 < error < 1e-3, f"one-stage error {error}"

    def test_time_strictly_increases(self):
        state = self.flat_state()
        times = [state.time]
        for _ in range(3):
            state = flow_step(state, 0.005)
            times.append(state.time)
        assert all(b > a for a, b in zip(times, times[1:]))
        assert state.steps_taken == 3

    def test_frozen_boundary_unchanged(self):
        box = GridBox((0.2 + 0j,), half_width=0.1, resolution=5, boundary="frozen")
        spec = builtin_metric("poincare_polydisk", 1)
        state = init_flow(spec, box, source_tau(1.0))
        initial = state.field.values.copy()
        state = run_flow(state, dt=0.002, steps=5)
        boundary_mask = np.ones((5, 5), dtype=bool)
        boundary_mask[1:-1, 1:-1] = False
        assert np.array_equal(state.field.values[boundary_mask], initial[boundary_mask])
        interior_move = np.abs(state.field.values[2, 2] - initial[2, 2]).max()
        assert interior_move > 1e-4

    def test_positivity_preserved(self):
        state = run_flow(self.flat_state(), dt=0.02, steps=5)
        assert state.field.min_eigenvalue() > 0

    def test_guard_subdivides_large_steps(self):
        # spacing 0.25 gives a parabolic limit of 0.2 * 0.0625 = 0.0125 on
        # the flat metric, so dt = 0.05 must be split into four substeps.
        state = flow_step(self.flat_state(), dt=0.05)
        assert state.time == pytest.approx(0.05)
        assert state.steps_taken == 1
        assert state.history[0].dt == pytest.approx(0.05)
        error = abs(state.field.values[2, 2, 0, 0] - math.exp(-0.05))
        assert error < 1e-5

    def test_guard_aborts_after_eight_halvings(self):
        with pytest.raises(NumericalError):
            flow_step(self.flat_state(), dt=0.0125 * 2**9)

    def test_step_validation(self):
        state = self.flat_state()
        with pytest.raises(ConfigError):
            flow_step(state, 0.0)
        with pytest.raises(ConfigError):
            flow_step(state, 0.01, method="implicit")
        with pytest.raises(ConfigError):
            run_flow(state, 0.01, steps=0)

    def test_two_dimensional_flow_runs(self):
        state = self.flat_state(n=2, tau=math.inf)
        state = run_flow(state, dt=0.01, steps=3)
        expected = math.exp(-0.03)
        assert np.allclose(
            state.field.values[2, 2, 2, 2], expected * np.eye(2), atol=1e-6
        )

    def test_poincare_step_refinement_converges(self):
        # No closed form off the flat metric; the two-stage runs at two step
        # sizes must agree on the same grid to well below either step error.
        # (The guard subdivides internally; the chosen steps land on distinct
        # effective substeps.)
        box = GridBox((0.1 + 0j,), half_width=0.5, resolution=7, boundary="frozen")
        spec = builtin_metric("poincare_polydisk", 1)
        coarse = run_flow(init_flow(spec, box, source_tau(1.0)), dt=0.002, steps=10)
        fine = run_flow(init_flow(spec, box, source_tau(1.0)), dt=0.0002, steps=100)
        assert coarse.time == pytest.approx(fine.time)
        gap = np.abs(coarse.field.values[3, 3] - fine.field.values[3, 3]).max()
        assert gap < 1e-6, f"step refinement moved the answer by {gap}"


class TestDiagnostics:
    def test_sup_trace_oracle(self):
        box = GridBox((0.25 + 0j, 0j), half_width=0.25, resolution=3)
        state = init_flow(
            builtin_metric("poincare_polydisk", 2),
            box,
            source_tau(1.0),
            reference=builtin_metric("flat", 2),
        )
        # node (2, 1, 1, 1) sits at (0.5, 0): trace = (1 - 0.25)^2 + 1.
        traces = _sup_trace(state, state.field)
        x = np.conj(np.linalg.inv(state.field.values[2, 1, 1, 1]))
        node_trace = float(np.real(np.trace(x)))
        assert node_trace == pytest.approx(1.5625, abs=1e-12)
        assert traces >= node_trace

    @pytest.mark.parametrize("method, inverses", [("heun", [3, 2, 2]), ("euler", [2, 1, 1])])
    def test_sup_trace_reads_the_velocity_inverse(self, method, inverses, monkeypatch):
        # each field inverts its values once, for its velocity; the sup trace
        # of the end field reads that inverse instead of forming its own
        box = GridBox((0.05 + 0j, 0.02j), half_width=0.1, resolution=5, boundary="frozen")
        state = init_flow(fixture("F1"), box, source_tau(2.0), reference=fixture("F4"))
        counts = {"inverse": 0, "velocity": 0}
        velocity = flow.thcf_velocity

        def counted_inverse(g):
            counts["inverse"] += 1
            return metric_inverse_up(g)

        def counted_velocity(jet, tau):
            counts["velocity"] += 1
            return velocity(jet, tau)

        # the two binding sites a flow step reaches: the jet's and the field's
        for module in (metric_model.model, flow):
            monkeypatch.setattr(module, "metric_inverse_up", counted_inverse)
        monkeypatch.setattr(flow, "thcf_velocity", counted_velocity)
        per_step = []
        for _ in inverses:
            before = dict(counts)
            state = flow_step(state, 1e-4, method)
            per_step.append({k: counts[k] - before[k] for k in counts})
        assert [row.substeps for row in state.history] == [1, 1, 1]
        assert [step["inverse"] for step in per_step] == inverses
        assert [step["velocity"] for step in per_step] == inverses
        x = metric_inverse_up(state.field.values)
        want = float(np.real(np.einsum("...kl,...kl->...", x, state.reference_values)).max())
        assert state.history[-1].sup_trace == want

    def test_history_rows_and_csv(self):
        box = GridBox((0j,), half_width=0.5, resolution=5, boundary="periodic")
        state = init_flow(
            builtin_metric("flat", 1),
            box,
            source_tau(1.0),
            reference=builtin_metric("flat", 1),
        )
        state = run_flow(state, dt=0.01, steps=4)
        assert [row.step for row in state.history] == [1, 2, 3, 4]
        # the flat reference trace against a decaying metric grows like e^t
        sups = [row.sup_trace for row in state.history]
        assert all(b > a for a, b in zip(sups, sups[1:]))
        assert sups[-1] == pytest.approx(math.exp(0.04), abs=1e-5)

        stream = io.StringIO()
        write_diagnostics_csv(state, stream)
        lines = stream.getvalue().strip().split("\n")
        assert lines[0] == "step,time,dt,min_eigenvalue,max_velocity,sup_trace"
        assert len(lines) == 5

    def test_csv_without_reference(self):
        state = run_flow(self.flat_no_reference(), dt=0.01, steps=2)
        stream = io.StringIO()
        write_diagnostics_csv(state, stream)
        rows = stream.getvalue().strip().split("\n")[1:]
        assert all(row.endswith(",") for row in rows)

    def flat_no_reference(self):
        box = GridBox((0j,), half_width=0.5, resolution=5, boundary="periodic")
        return init_flow(builtin_metric("flat", 1), box, source_tau(1.0))


class TestParabolicResidual:
    def test_certified_disk_configuration(self):
        spec = builtin_metric("poincare_polydisk", 1)
        report = parabolic_schwarz_residual(
            spec, spec, np.array([0.3 + 0j]), source_tau(1.0), kappa0=2.0
        )
        assert report.trace == pytest.approx(1.0, abs=1e-12)
        assert report.dt_trace == pytest.approx(-1.0, abs=1e-12)
        assert abs(report.laplacian) < 1e-9
        assert report.lhs == pytest.approx(-1.0, abs=1e-9)
        assert report.rhs == pytest.approx(-1.0, abs=1e-12)
        assert abs(report.residual) <= 1e-3
        assert report.preconditions_hold

    def test_inflated_kappa_is_positive(self):
        spec = builtin_metric("poincare_polydisk", 1)
        report = parabolic_schwarz_residual(
            spec, spec, np.array([0.3 + 0j]), source_tau(1.0), kappa0=20.0
        )
        assert report.residual == pytest.approx(18.0, abs=1e-6)
        assert report.residual > 0

    def test_static_flat_flow(self):
        spec = builtin_metric("flat", 2)
        report = parabolic_schwarz_residual(
            spec,
            spec,
            np.zeros(2, dtype=complex),
            source_tau(1.0),
            kappa0=0.0,
            velocity=np.zeros((2, 2)),
        )
        assert report.residual == pytest.approx(-2.0, abs=1e-8)
        assert report.preconditions_hold  # 0 >= -Ric - g = -I holds

    def test_velocity_and_two_step_time_derivative_agree(self):
        spec = builtin_metric("poincare_polydisk", 1)
        z = np.array([0.3 + 0j])
        tau = source_tau(1.0)
        report = parabolic_schwarz_residual(spec, spec, z, tau, kappa0=2.0)
        jet = metric_jet(spec, z)
        v = thcf_velocity(jet, tau)
        h = metric_value(spec, z)
        gaps = []
        for dt in (1e-3, 1e-4):
            stepped = jet.g + dt * v
            trace = np.real(np.trace(np.conj(np.linalg.inv(stepped)) @ h.T))
            fd = (trace - report.trace) / dt
            gaps.append(abs(fd - report.dt_trace))
        assert gaps[0] < 2e-3
        assert gaps[1] < 2e-4  # first order in dt

    def test_supersolution_slacks_flag_deficit(self):
        spec = builtin_metric("poincare_polydisk", 1)
        jet = metric_jet(spec, np.array([0.3 + 0j]))
        point = ChernPoint.from_jet(jet)
        tau = source_tau(1.0)
        v = thcf_velocity(jet, tau)
        eig, tr = supersolution_slacks(v, point, tau)
        assert abs(eig) < 1e-12 and abs(tr) < 1e-12
        eig, tr = supersolution_slacks(v - 0.1 * np.eye(1), point, tau)
        assert eig == pytest.approx(-0.1, abs=1e-12)
        assert tr < 0

    def test_validation(self):
        disk = builtin_metric("poincare_polydisk", 1)
        with pytest.raises(ConfigError):
            parabolic_schwarz_residual(
                disk, disk, np.array([0.3 + 0j]), source_tau(1.0), kappa0=-1.0
            )
        with pytest.raises(ConfigError):
            parabolic_schwarz_residual(
                disk,
                builtin_metric("flat", 2),
                np.array([0.3 + 0j]),
                source_tau(1.0),
                kappa0=1.0,
            )
        with pytest.raises(ConfigError):
            parabolic_schwarz_residual(
                disk,
                disk,
                np.array([0.3 + 0j]),
                source_tau(1.0),
                kappa0=1.0,
                velocity=np.zeros((2, 2)),
            )

    @pytest.mark.parametrize("source, reference, region", [
        ("F1", "F4", "F1"), ("F2", "F1", "F1"), ("F3", "F3", "F1"), ("P1", "P1", "P1"),
    ])
    def test_trace_is_the_energy_of_the_identity_map(self, source, reference, region):
        # the Wu-Yau comparison applies the Schwarz lemma to the identity map
        # (M, g) -> (M, h), whose energy density is tr_g h
        specs = {name: fixture(name) for name in ("F1", "F2", "F3", "F4")}
        specs["P1"] = builtin_metric("poincare_polydisk", 1)
        source, reference = specs[source], specs[reference]
        n = source.n
        z = specs[region].region.sample_points(n, np.random.default_rng(11), 6)
        identity = HoloMap(tuple(Var(k) for k in range(n)), n)
        expansion = laplacian_identity_report(source, reference, identity, z)
        for value in (0.5, 1.0, math.inf):
            report = parabolic_schwarz_residual(source, reference, z, source_tau(value), 1.5)
            assert report.trace.tobytes() == expansion.energy.tobytes()
            assert report.laplacian.tobytes() == expansion.laplacian.tobytes()
        # against the expansion's other side, assembled from exact Chern tensors
        gap = np.abs(report.laplacian - expansion.assembled)
        assert np.all(gap <= 1e-6 * np.maximum(1.0, np.abs(expansion.assembled)))

    @pytest.mark.parametrize("kappa0", [math.nan, math.inf])
    def test_non_finite_kappa0_is_a_config_error(self, kappa0):
        disk = builtin_metric("poincare_polydisk", 1)
        with pytest.raises(ConfigError,
                           match=f"^kappa0 must be finite and nonnegative, got {kappa0}$"):
            parabolic_schwarz_residual(disk, disk, np.array([0.3 + 0j]), source_tau(1.0), kappa0)

    def test_stencil_leaving_the_reference_region(self):
        # the reference is the target of the identity map, evaluated on the
        # images of the energy's footprint, which at 0.9995 reach the pole
        # |z| = 1 (once a NaN residual with preconditions_hold True)
        flat_1, disk = builtin_metric("flat", 1), builtin_metric("poincare_polydisk", 1)
        with pytest.raises(ConfigError, match=r"^the image of the stencil around \[0.9995\+0.j\] "
                                              r"leaves the target's polydisk region; lower --h"):
            parabolic_schwarz_residual(flat_1, disk, np.array([0.9995]), source_tau(1.0), 1.0)
        report = parabolic_schwarz_residual(flat_1, disk, np.array([0.99]), source_tau(1.0), 1.0)
        assert np.isfinite(report.residual) and report.preconditions_hold


class TestStackedComparison:
    """Point stacks give, point by point, exactly the numbers of one-point calls.

    Run with ``-s`` to print the largest row difference.
    """

    TAUS = (0.5, 1.0, 2.0, math.inf)

    @staticmethod
    def points(count=6):
        return fixture("F1").region.sample_points(2, np.random.default_rng(11), count)

    @pytest.mark.parametrize("source, reference", [("F1", "F4"), ("F2", "F1")])
    def test_residual_rows_equal_one_point_calls(self, source, reference):
        source_spec, reference_spec = fixture(source), fixture(reference)
        points = self.points()
        for value in self.TAUS:
            tau = source_tau(value)
            stacked = parabolic_schwarz_residual(source_spec, reference_spec, points, tau, 1.5)
            grid = parabolic_schwarz_residual(source_spec, reference_spec,
                                              points.reshape(2, 3, 2), tau, 1.5)
            singles = [parabolic_schwarz_residual(source_spec, reference_spec, z, tau, 1.5)
                       for z in points]
            largest = 0.0
            for field in dataclasses.fields(stacked):
                got = getattr(stacked, field.name)
                want = np.array([getattr(report, field.name) for report in singles])
                assert got.shape == (len(points),), field.name
                assert np.array_equal(got, want), field.name
                assert np.array_equal(getattr(grid, field.name), got.reshape(2, 3)), field.name
                largest = max(largest, float(np.max(np.abs(got.astype(float) - want))))
            print(f"\n{source} against {reference}, tau {value}: largest difference between "
                  f"stacked and one-point comparison rows over {len(points)} points: {largest:.1e}")

    @pytest.mark.parametrize("name", ["F1", "F2"])
    def test_slack_rows_equal_one_point_calls(self, name):
        spec = fixture(name)
        points = self.points()
        for value in self.TAUS:
            tau = source_tau(value)
            jet = metric_jet(spec, points.reshape(2, 3, 2))
            # a velocity off the THCF one, so the slacks do not vanish
            velocity = thcf_velocity(jet, tau) - 0.1 * jet.g
            point = ChernPoint.from_jet(jet)
            stacked = supersolution_slacks(velocity, point, tau)
            defect = hermitian_part(velocity + ric_tau(point, tau) + jet.g)
            assert np.array_equal(stacked[0], hermitian_eigenvalues(defect).min(axis=-1))
            for k, z in enumerate(points):
                index = np.unravel_index(k, (2, 3))
                one = metric_jet(spec, z)
                single = supersolution_slacks(velocity[index], ChernPoint.from_jet(one), tau)
                for got, want in zip(stacked, single):
                    assert got.shape == (2, 3)
                    assert got[index] == want

    @pytest.mark.parametrize("value", TAUS)
    def test_stacked_velocity_is_the_tempered_ricci(self, value):
        tau = source_tau(value)
        jet = metric_jet(fixture("F1"), self.points().reshape(2, 3, 2))
        want = hermitian_part(-ric_tau(ChernPoint.from_jet(jet), tau) - jet.g)
        assert np.array_equal(thcf_velocity(jet, tau), want)

    def test_velocity_stack_shape_checked(self):
        spec = fixture("F1")
        points = self.points()
        for shape in ((2, 2), (5, 2, 2), (6, 1, 1)):
            with pytest.raises(ConfigError, match="velocity has shape"):
                parabolic_schwarz_residual(spec, spec, points, source_tau(1.0), 1.0,
                                           velocity=np.zeros(shape))
