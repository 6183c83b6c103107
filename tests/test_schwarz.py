"""Map Hessians, the energy-density expansion, and the scalar inequalities.

The expansion residual is pure finite-difference truncation (the assembled
side is exact), so it also serves as an order check for the scheme.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.errors import ConfigError, NumericalError
from curvlab.functionals import TauParam, rbc, ric_tau_frame
from curvlab.metric_model import (Const, JetScheme, MetricSpec, Region, builtin_metric,
                                  field_first, fixture, metric_jet, parse_expr)
from curvlab.schwarz import (
    HoloMap,
    assemble_map,
    bismut_comparison_report,
    connection_invariance_residual,
    energy_and_laplacian,
    energy_density,
    energy_upper_bound,
    hessian_tensors,
    laplacian_identity_report,
    schwarz_inequality_report,
    singular_square_bound_slack,
    torsion_difference_frame,
    young_split_slack,
)

CASES = {
    "disk_square": {
        "source": "F2",
        "target": "F2",
        "map": ("z1^2", "z2^2"),
        "z": np.array([0.3 + 0.2j, -0.1 + 0.25j]),
    },
    "ball_to_polydisk": {
        "source": "F1",
        "target": "F2",
        "map": ("(z1 + z2)/2", "z1*z2 - z2^2"),
        "z": np.array([0.1, -0.05 + 0.08j]),
    },
    "hopf_shear": {
        "source": "F3",
        "target": "F3",
        "map": ("2*z2", "z1 - z2"),
        "z": np.array([0.6, 0.3 - 0.1j]),
    },
}


def build(case):
    data = CASES[case]
    return (
        fixture(data["source"]),
        fixture(data["target"]),
        HoloMap.parse(data["map"], fixture(data["source"]).n),
        data["z"],
    )


def test_laplacian_that_is_not_finite_is_numerical_error():
    source = fixture("F1")
    points = np.array([[0.1, 0.05j], [0.02, -0.1]])
    identity = HoloMap.parse(("z1", "z2"), 2)
    # the target's pole z1 = 0.02 lies on the footprint of the second centre only
    pole = MetricSpec("pole", 2, ((parse_expr("1 + 0.001/abs2(z1 - 0.02)"), Const(0j)),
                                  (Const(0j), Const(1 + 0j))), Region("ball", 1.0))
    with pytest.raises(NumericalError, match="^the Laplacian is not finite at") as info:
        energy_and_laplacian(source, pole, identity, metric_jet(source, points))
    assert str(info.value).endswith(str(points[1].astype(complex)))
    # the identity of a flat metric has the constant energy n
    flat = builtin_metric("flat", 2)
    energy, laplacian = energy_and_laplacian(flat, flat, identity, metric_jet(flat, points))
    assert laplacian.shape == (2,) and np.abs(laplacian).max() < 1e-8
    assert np.abs(energy - 2.0).max() < 1e-12


class TestHoloMap:
    def test_rejects_conjugation(self):
        with pytest.raises(ConfigError):
            HoloMap.parse(("conj(z1)",), 1)
        with pytest.raises(ConfigError):
            HoloMap.parse(("abs2(z1)",), 1)

    def test_rejects_missing_variable(self):
        with pytest.raises(ConfigError):
            HoloMap.parse(("z3",), 2)

    def test_exact_jet_matches_finite_differences(self):
        m = HoloMap.parse(("z1^2*z2 + 3*z2", "z1 - z2^3"), 2)
        z = np.array([0.4 - 0.1j, 0.2 + 0.3j])
        jet = m.jet(z)
        assert np.array_equal(jet.value, m.first(z)[0])
        d, dbar = field_first(lambda w: m.first(w)[0], z)
        assert np.allclose(jet.jacobian, d.T, atol=1e-9)
        # the Jacobian's stencil: its holomorphic first is the Hessian, and its
        # antiholomorphic first vanishes, as it does for a holomorphic map
        d, dbar = field_first(lambda w: m.first(w)[1], z)
        assert np.allclose(jet.hessian, np.transpose(d, (1, 2, 0)), atol=1e-9)
        assert np.abs(dbar).max() <= 1e-9, f"antiholomorphic leak {np.abs(dbar).max():.3e}"

    def test_hessian_symmetric(self):
        m = HoloMap.parse(("z1^3*z2^2",), 2)
        jet = m.jet(np.array([0.5, 0.25 - 0.4j]))
        assert np.allclose(jet.hessian, jet.hessian.swapaxes(1, 2), atol=1e-14)

    def test_a_map_with_no_components_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^map needs at least one component$"):
            energy_density(fixture("F2"), fixture("F2"), HoloMap.parse([], 2), [0.1, 0.1])


class TestAssembly:
    def test_image_region_enforced(self):
        source, target, m, _ = build("disk_square")
        with pytest.raises(ConfigError):
            # z1^2 at 1.2 leaves the unit polydisk
            assemble_map(source, target, m, np.array([1.2, 0.0]))

    @pytest.mark.parametrize("point", [[1.5], [1.0]])
    def test_energy_density_images_leaving_the_target(self, point):
        # the disk's metric read at 1.5 is finite (0.64) and at 1.0 is NaN,
        # so an unchecked image gives a silent wrong number
        m = HoloMap.parse(("z1",), 1)
        with pytest.raises(ConfigError, match=r"image point \[1\.\d*\+0\.j\] .* leaves the target"):
            energy_density(builtin_metric("flat", 1), builtin_metric("poincare_polydisk", 1), m,
                           point)

    def test_dimension_mismatch(self):
        source = fixture("F2")
        m = HoloMap.parse(("z1",), 1)
        with pytest.raises(ConfigError):
            assemble_map(source, source, m, np.array([0.1, 0.2]))

    def test_point_shape_checked_at_map_fold(self):
        # a point of the wrong shape is a configuration error naming the shape,
        # not a numpy traceback, in every report that folds the map
        source, target, m, z = build("disk_square")
        reports = (
            lambda bad: laplacian_identity_report(source, target, m, bad),
            lambda bad: schwarz_inequality_report(source, target, m, bad, c1=2.0, c2=0.5,
                                                  kappa0=1.5, r=2),
            lambda bad: energy_density(source, target, m, bad),
            lambda bad: bismut_comparison_report(source, target, m, bad, tau=1.0),
            m.first,
            m.jet,
            HoloMap.parse(("z1", "z2"), 2).first,
        )
        for report in reports:
            for bad in (z[:1], z[0], np.zeros((3, 1), dtype=complex)):
                with pytest.raises(ConfigError, match=r"shape \(\.\.\., 2\)"):
                    report(bad)

    def test_frame_energy_matches_chart_energy(self):
        for case in CASES:
            source, target, m, z = build(case)
            assembly = assemble_map(source, target, m, z)
            frame_energy = float(np.sum(np.abs(assembly.jac_frame) ** 2))
            chart_energy = energy_density(source, target, m, z)
            assert abs(frame_energy - chart_energy) < 1e-10, (
                f"{case}: frame {frame_energy} chart {chart_energy}"
            )

    def test_identity_map_unit_energy(self):
        spec = fixture("F2")
        m = HoloMap.parse(("z1", "z2"), 2)
        e = energy_density(spec, spec, m, np.array([0.3 - 0.2j, 0.55]))
        assert abs(e - 2.0) < 1e-12  # trace of the identity in dimension 2


class TestIdentityReport:
    def test_expansion_holds_on_all_cases(self):
        for case in CASES:
            source, target, m, z = build(case)
            report = laplacian_identity_report(source, target, m, z)
            assert report.relative_residual <= 1e-6, (
                f"{case}: residual {report.relative_residual:.3e}"
            )
            assert report.skew_residual <= 1e-8, (
                f"{case}: skew identity off by {report.skew_residual:.3e}"
            )
            split = report.symmetric_square + report.skew_square
            assert abs(split - report.hessian_square) < 1e-10

    def test_skew_part_is_nontrivial_with_torsion(self):
        source, target, m, z = build("hopf_shear")
        report = laplacian_identity_report(source, target, m, z)
        assert report.skew_square > 1e-3, "hopf torsion should show up in the skew part"

    def test_torsion_difference_matches_skew(self):
        source, target, m, z = build("ball_to_polydisk")
        assembly = assemble_map(source, target, m, z)
        frame_h = hessian_tensors(assembly)
        skew = 0.5 * (frame_h - frame_h.swapaxes(1, 2))
        diff = torsion_difference_frame(assembly)
        assert np.max(np.abs(2.0 * skew - diff)) <= 1e-10

    def test_residual_scales_at_scheme_order(self):
        source, target, m, z = build("disk_square")
        coarse = JetScheme(h=2e-2, order=2, richardson=0)
        fine = JetScheme(h=1e-2, order=2, richardson=0)
        r_coarse = laplacian_identity_report(source, target, m, z, coarse).relative_residual
        r_fine = laplacian_identity_report(source, target, m, z, fine).relative_residual
        ratio = r_coarse / r_fine
        assert 2.5 < ratio < 6.0, f"halving ratio {ratio:.2f} (residuals {r_coarse:.3e}/{r_fine:.3e})"


class TestConnectionInvariance:
    def test_symmetric_part_never_moves(self):
        source, target, m, z = build("ball_to_polydisk")
        assembly = assemble_map(source, target, m, z)
        grid = (-1.0, 0.0, 0.3, 1.0, 2.0)
        worst = 0.0
        for ts in grid:
            for tt in grid:
                res = connection_invariance_residual(
                    source, target, m, z, ts, tt, assembly=assembly
                )
                worst = max(worst, res)
        assert worst <= 1e-8, f"symmetric Hessian drifted by {worst:.3e}"

    def test_full_hessian_does_move(self):
        # only the symmetric part is invariant; the raw tensor shifts
        source, target, m, z = build("hopf_shear")
        assembly = assemble_map(source, target, m, z)
        from curvlab.schwarz import _frame_hessian, _hessian_chart

        gamma_s = assembly.source_point.gamma
        gamma_t = assembly.target_point.gamma
        base = _frame_hessian(assembly, _hessian_chart(assembly.map_jet, gamma_t, gamma_s))
        shifted_s = gamma_s - 1.0 * assembly.source_point.torsion
        shifted_t = gamma_t - 1.0 * assembly.target_point.torsion
        moved = _frame_hessian(
            assembly, _hessian_chart(assembly.map_jet, shifted_t, shifted_s)
        )
        assert np.max(np.abs(moved - base)) > 1e-3


class TestScalarInequalities:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        tau=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=150, deadline=None)
    def test_young_split_nonnegative(self, seed, tau):
        rng = np.random.default_rng(seed)
        shape = (3, 2, 2)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        slack = young_split_slack(a, b, tau)
        assert slack >= -1e-12, f"negative Young slack {slack:.3e}"

    def test_young_split_tight_at_matched_scale(self):
        # equality when b = tau a with a, b parallel
        a = np.array([1.0 + 1.0j, 2.0])
        tau = 0.7
        slack = young_split_slack(a, tau * a, tau)
        assert abs(slack) < 1e-12

    def test_young_rejects_bad_tau(self):
        with pytest.raises(ConfigError):
            young_split_slack(np.ones(2), np.ones(2), 0.0)
        with pytest.raises(ConfigError):
            young_split_slack(np.ones(2), np.ones(2), math.inf)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=6),
        c2=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_singular_square_bound_nonnegative(self, seed, count, c2):
        rng = np.random.default_rng(seed)
        squares = rng.uniform(0.0, 4.0, size=count)
        slack = singular_square_bound_slack(squares, 2.0, c2, n=6)
        assert slack >= -1e-12, f"negative eigenvalue slack {slack:.3e}"

    def test_singular_square_bound_tight_when_balanced(self):
        slack = singular_square_bound_slack([1.5, 1.5, 1.5], 2.0, 3.0, n=3)
        assert abs(slack) < 1e-12

    def test_energy_upper_bound_values(self):
        assert energy_upper_bound(2.0, 0.0, 2.0, 1, 1) == 1.0
        assert abs(energy_upper_bound(6.0, 3.0, 1.0, 2, 4) - 48.0 / 10.0) < 1e-15
        with pytest.raises(ConfigError):
            energy_upper_bound(2.0, 0.0, 0.0, 1, 1)
        with pytest.raises(ConfigError):
            energy_upper_bound(2.0, -5.0, 1.0, 2, 2)

    @pytest.mark.parametrize("args, message", [
        ((1.0, 0.5, math.nan, 2, 2), "kappa0 must be finite, got nan"),
        ((math.nan, 0.5, 1.0, 2, 2), "c1 must be finite, got nan"),
        ((1.0, math.inf, 1.0, 2, 2), "c2 must be finite, got inf"),
        ((1.0, 0.5, 1.0, math.nan, 2), "rank and dimension must be at least 1"),
    ])
    def test_energy_upper_bound_needs_finite_parameters(self, args, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            energy_upper_bound(*args)

    @pytest.mark.parametrize("args, message", [
        (([], 1.0, 1.0, 0), "the dimension must be at least 1, got 0"),
        (([1.0], 1.0, 1.0, math.nan), "the dimension must be at least 1, got nan"),
        (([1.0], 1.0, math.nan, 2), "c2 must be finite, got nan"),
        (([1.0], math.inf, 1.0, 2), "c1 must be finite, got inf"),
        (([math.nan], 1.0, 1.0, 2), "squared singular values must be finite and nonnegative"),
        (([math.inf], 1.0, 1.0, 2), "squared singular values must be finite and nonnegative"),
    ])
    def test_singular_square_bound_needs_finite_parameters(self, args, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            singular_square_bound_slack(*args)


class TestSchwarzReport:
    def test_poincare_identity_is_the_equality_case(self):
        from curvlab.metric_model import poincare_polydisk

        disk1 = poincare_polydisk(1)
        m = HoloMap.parse(("z1",), 1)
        report = schwarz_inequality_report(
            disk1, disk1, m, np.array([0.35 - 0.2j]), c1=2.0, c2=0.0, kappa0=2.0, r=1
        )
        assert abs(report.energy - 1.0) <= 1e-9, f"energy {report.energy}"
        assert abs(report.energy_bound - 1.0) <= 1e-9
        assert abs(report.slack) <= 1e-6, f"slack {report.slack:.3e}"

    def test_contraction_strictly_inside(self):
        from curvlab.metric_model import poincare_polydisk

        disk1 = poincare_polydisk(1)
        m = HoloMap.parse(("z1^2",), 1)
        report = schwarz_inequality_report(
            disk1, disk1, m, np.array([0.3 + 0.2j]), c1=2.0, c2=0.0, kappa0=2.0, r=1
        )
        assert report.energy < report.energy_bound
        assert report.slack > 0.0

    def test_non_finite_kappa0_is_a_config_error(self):
        source, target, m, _ = build("disk_square")
        with pytest.raises(ConfigError, match="^kappa0 must be finite, got nan$"):
            schwarz_inequality_report(source, target, m, np.array([0.1, 0.1]), c1=2.0, c2=0.5,
                                      kappa0=math.nan, r=2)


class TestBismutComparison:
    def test_exact_route_bounds_the_laplacian(self):
        for case in ("disk_square", "hopf_shear", "ball_to_polydisk"):
            source, target, m, z = build(case)
            report = bismut_comparison_report(source, target, m, z, tau=1.0)
            assert report.exact_holds, (
                f"{case}: exact bound {report.exact_bound} above laplacian {report.laplacian}"
            )
            assert report.source_display_deviation <= 1e-9, (
                f"{case}: source display deviates by {report.source_display_deviation:.3e}"
            )

    def test_exact_route_matches_direct_chern_route(self):
        source, target, m, z = build("hopf_shear")
        tau = 0.8
        report = bismut_comparison_report(source, target, m, z, tau=tau)
        assembly = assemble_map(source, target, m, z)
        f = assembly.jac_frame
        xi = np.einsum("ai,bi->ab", f, np.conj(f))
        xi_norm2 = float(np.real(np.sum(xi * np.conj(xi))))
        src = float(
            np.real(
                np.einsum(
                    "qp,ap,aq->",
                    ric_tau_frame(assembly.source_point, TauParam(tau, "source")),
                    f,
                    np.conj(f),
                )
            )
        )
        tgt = rbc(assembly.target_point, xi / math.sqrt(xi_norm2), TauParam(tau, "target"))
        direct = src - tgt * xi_norm2
        assert abs(report.exact_bound - direct) <= 1e-9, (
            f"family route {report.exact_bound} vs direct {direct}"
        )

    def test_printed_target_block_disagrees(self):
        # the published target lines differ from the exact route even with
        # zero torsion, which is why both readings are reported
        source, target, m, z = build("disk_square")
        report = bismut_comparison_report(source, target, m, z, tau=1.0)
        assert report.target_display_deviation > 1e-3

    def test_tau_range_enforced(self):
        source, target, m, z = build("disk_square")
        with pytest.raises(ConfigError):
            bismut_comparison_report(source, target, m, z, tau=0.0)
        with pytest.raises(ConfigError):
            bismut_comparison_report(source, target, m, z, tau=math.inf)


class TestBatchedReports:
    """A stacked call gives, point by point, exactly the numbers of one-point calls.

    The maps' trees are deeper than one operation.  A one-point fold through
    numpy scalars, rather than a one-row stack, rounds the product of two
    sums differently, which the curvature of hopf(2) carries into the rows.
    Run with ``-s`` to print the largest row difference.
    """

    @staticmethod
    def stack(target="F2", components=CASES["ball_to_polydisk"]["map"]):
        source = fixture("F1")
        points = source.region.sample_points(2, np.random.default_rng(7), 6)
        return source, fixture(target), HoloMap.parse(components, 2), points

    MAPS = [("F2", CASES["ball_to_polydisk"]["map"]),
            ("F3", ("(z1 + z2)*(z1 - z2)", "z1*z2 - z2^2"))]

    @pytest.mark.parametrize("target, components", MAPS)
    def test_identity_rows_equal_one_point_calls(self, target, components):
        source, target_metric, m, points = self.stack(target, components)
        stacked = laplacian_identity_report(source, target_metric, m, points)
        singles = [laplacian_identity_report(source, target_metric, m, z) for z in points]
        columns = {
            field.name: (getattr(stacked, field.name),
                         np.array([getattr(report, field.name) for report in singles]))
            for field in dataclasses.fields(stacked)
        }
        largest = max(float(np.max(np.abs(got - want))) for got, want in columns.values())
        print(f"\nF1 -> {target}, {'; '.join(components)}: largest difference between "
              f"stacked and one-point identity rows over {len(points)} points: {largest:.1e}")
        for name, (got, want) in columns.items():
            assert got.shape == (len(points),), name
            assert np.array_equal(got, want), name

    def test_batch_axes_are_kept(self):
        source, target, m, points = self.stack()
        flat = laplacian_identity_report(source, target, m, points)
        grid = laplacian_identity_report(source, target, m, points.reshape(2, 3, 2))
        for field in dataclasses.fields(flat):
            got = getattr(grid, field.name)
            assert got.shape == (2, 3), field.name
            assert np.array_equal(got.ravel(), getattr(flat, field.name)), field.name

    def test_schwarz_report_and_energy_rows(self):
        source, target, m, points = self.stack()
        stacked = schwarz_inequality_report(source, target, m, points, c1=2.0, c2=0.5,
                                            kappa0=1.5, r=2)
        for k, z in enumerate(points):
            single = schwarz_inequality_report(source, target, m, z, c1=2.0, c2=0.5,
                                               kappa0=1.5, r=2)
            for field in dataclasses.fields(single):
                assert getattr(stacked, field.name)[k] == getattr(single, field.name), field.name
        energies = energy_density(source, target, m, points)
        assert np.array_equal(energies, stacked.energy)
        assert np.array_equal(energies, [energy_density(source, target, m, z) for z in points])

    @pytest.mark.parametrize("target, components", MAPS)
    def test_bismut_rows_equal_one_point_calls(self, target, components):
        source, target_metric, m, points = self.stack(target, components)
        for tau in (0.8, 1.0, 2.5):
            stacked = bismut_comparison_report(source, target_metric, m, points, tau=tau)
            grid = bismut_comparison_report(source, target_metric, m, points.reshape(2, 3, 2),
                                            tau=tau)
            singles = [bismut_comparison_report(source, target_metric, m, z, tau=tau)
                       for z in points]
            largest = 0.0
            for field in dataclasses.fields(stacked):
                got = getattr(stacked, field.name)
                want = np.array([getattr(report, field.name) for report in singles])
                assert got.shape == (len(points),), field.name
                assert np.array_equal(got, want), field.name
                assert np.array_equal(getattr(grid, field.name), got.reshape(2, 3)), field.name
                largest = max(largest, float(np.max(np.abs(got.astype(float) - want))))
            print(f"\nF1 -> {target}, tau {tau}: largest difference between stacked and "
                  f"one-point Bismut rows over {len(points)} points: {largest:.1e}")
