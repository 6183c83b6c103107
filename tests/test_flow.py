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

import numpy as np
import pytest

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
    step_euler,
    supersolution_slacks,
    thcf_velocity,
    write_diagnostics_csv,
)
from curvlab.functionals import TauParam, ric_tau
from curvlab.metric_model import MetricJet, builtin_metric, fixture, metric_jet, metric_value
from curvlab.tensor_core import hermitian_part


def source_tau(value):
    return TauParam(value, "source")


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
        z = field.node_points()[3, 1]
        assert np.allclose(field.values[3, 1], metric_value(spec, z), atol=1e-14)

    @pytest.mark.parametrize("name", ["F1", "F2"])
    def test_values_equal_node_by_node(self, name):
        spec = fixture(name)
        box = GridBox((0.03 + 0.01j, -0.02j), half_width=0.05, resolution=5)
        field = GridMetricField.from_spec(spec, box)
        points = field.node_points()
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

    def test_grid_jets_match_exact_jets(self):
        spec = builtin_metric("poincare_polydisk", 1)
        box = GridBox((0.2 + 0j,), half_width=0.04, resolution=9)
        field = GridMetricField.from_spec(spec, box)
        grid = field.jets()
        center = (4, 4)
        jet = metric_jet(spec, field.node_points()[center])
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
        jet = metric_jet(spec, field.node_points()[center])
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


class TestGridVelocity:
    def test_matches_pointwise_velocity(self):
        spec = builtin_metric("poincare_polydisk", 1)
        box = GridBox((0.2 + 0j,), half_width=0.04, resolution=9)
        field = GridMetricField.from_spec(spec, box)
        v = thcf_velocity(field.jets(), source_tau(1.0))
        jet = metric_jet(spec, field.node_points()[4, 4])
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
        jet = metric_jet(spec, field.node_points()[center])
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
        v = thcf_velocity(grid, source_tau(tau))
        for idx in np.ndindex(*grid.g.shape[:-2]):
            node = MetricJet(grid.point[idx], grid.g[idx], grid.d_g[idx], grid.dd_g[idx])
            one = thcf_velocity(node, source_tau(tau))
            gap = np.abs(v[idx] - one).max()
            assert gap <= 1e-13 * np.abs(one).max(), f"node {idx}: off by {gap:.3e}"


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
            state = step_euler(state, 0.01)
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
        traces = _sup_trace(state, state.field.values)
        x = np.conj(np.linalg.inv(state.field.values[2, 1, 1, 1]))
        node_trace = float(np.real(np.trace(x)))
        assert node_trace == pytest.approx(1.5625, abs=1e-12)
        assert traces >= node_trace

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
            assert np.array_equal(stacked[0], np.linalg.eigvalsh(defect).min(axis=-1))
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
