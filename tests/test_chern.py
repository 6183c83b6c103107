"""Tests for Chern connection data against closed-form oracles.

Oracle values frozen from hand computations:

* fixture F1 at the origin: T[0,1,0] = 2, R[0,0,1,1] = 0.5,
  R[0,0,0,0] = -0.1, all four Ricci traces diag(0.4, 0.4) for the first two,
  Q^2[0,0] = 8, eta = (0, 2).
* product of Poincare disks, one factor: R[0,0,0,0] = -2 (1 - |z|^2)^{-4},
  Ricci = -2 g, torsion = 0.
* hopf metric: R[i,j,k,l] = delta_{kl} (delta_{ij} / |z|^4
  - conj(z_i) z_j / |z|^6), T[i,j,k] = (delta_{ik} conj(z_j)
  - delta_{jk} conj(z_i)) / |z|^2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.chern import (
    ChernPoint,
    chern_curvature,
    chern_torsion,
    connection_coefficients,
    first_bianchi_residual,
    normal_coordinates,
    pluriclosed_residuals,
    q_squared_chart,
    q_squared_frame,
    ricci_traces,
    torsion_trace_frame,
)
from curvlab.metric_model import (
    MetricJet,
    fixture,
    flat,
    hopf,
    metric_jet,
    poincare_polydisk,
)


def hopf_curvature_oracle(z: np.ndarray) -> np.ndarray:
    n = len(z)
    r2 = float(np.sum(np.abs(z) ** 2))
    r = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            coeff = (i == j) / r2**2 - np.conj(z[i]) * z[j] / r2**3
            for k in range(n):
                r[i, j, k, k] = coeff
    return r


def hopf_torsion_oracle(z: np.ndarray) -> np.ndarray:
    n = len(z)
    r2 = float(np.sum(np.abs(z) ** 2))
    t = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t[i, j, k] = ((i == k) * np.conj(z[j]) - (j == k) * np.conj(z[i])) / r2
    return t


class TestFixtureOneOrigin:
    def setup_method(self):
        self.jet = metric_jet(fixture("F1"), np.zeros(2, dtype=complex))

    def test_torsion(self):
        t = chern_torsion(self.jet)
        assert t[0, 1, 0] == pytest.approx(2.0)
        assert t[1, 0, 0] == pytest.approx(-2.0)
        assert np.max(np.abs(t + np.swapaxes(t, 0, 1))) < 1e-14

    def test_curvature_entries(self):
        r = chern_curvature(self.jet)
        assert r[0, 0, 1, 1] == pytest.approx(0.5)
        assert r[0, 0, 0, 0] == pytest.approx(-0.1)
        assert r[1, 1, 0, 0] == pytest.approx(0.5)

    def test_ricci_traces(self):
        traces = ricci_traces(self.jet)
        assert traces.ric2[0, 0] == pytest.approx(0.4)
        assert traces.ric1[0, 0] == pytest.approx(0.4)
        assert traces.ric2[1, 1] == pytest.approx(0.4)

    def test_torsion_square_and_trace(self):
        point = ChernPoint.from_jet(self.jet)
        q = q_squared_frame(point.torsion_frame)
        assert q[0, 0] == pytest.approx(8.0)
        eta = torsion_trace_frame(point.torsion_frame)
        assert eta[0] == pytest.approx(0.0)
        assert eta[1] == pytest.approx(2.0)


class TestPoincareDisk:
    def test_curvature_closed_form(self):
        spec = poincare_polydisk(1)
        for z in (0.3 + 0.2j, -0.5j, 0.7 + 0j):
            jet = metric_jet(spec, np.array([z]))
            r = chern_curvature(jet)
            s = 1 - abs(z) ** 2
            assert r[0, 0, 0, 0] == pytest.approx(-2.0 * s**-4, rel=1e-12)
            t = chern_torsion(jet)
            assert np.max(np.abs(t)) == 0.0

    def test_einstein_property(self):
        spec = poincare_polydisk(2)
        jet = metric_jet(spec, np.array([0.3 + 0.1j, -0.4j]))
        traces = ricci_traces(jet)
        for ric in (traces.ric1, traces.ric2, traces.ric3, traces.ric4):
            assert np.allclose(ric, -2.0 * jet.g, atol=1e-12)


class TestHopf:
    def setup_method(self):
        self.spec = hopf(2)
        self.z = np.array([0.6 + 0.2j, -0.4 + 0.3j])
        self.jet = metric_jet(self.spec, self.z)

    def test_curvature_closed_form(self):
        r = chern_curvature(self.jet)
        assert np.allclose(r, hopf_curvature_oracle(self.z), atol=1e-13)

    def test_torsion_closed_form(self):
        t = chern_torsion(self.jet)
        assert np.allclose(t, hopf_torsion_oracle(self.z), atol=1e-13)

    def test_hermitian_symmetry(self):
        r = chern_curvature(self.jet)
        swapped = np.conj(np.transpose(r, (1, 0, 3, 2)))
        assert np.max(np.abs(r - swapped)) < 1e-13

    def test_trace_structure(self):
        traces = ricci_traces(self.jet)
        assert np.max(np.abs(traces.ric1 - traces.ric1.conj().T)) < 1e-13
        assert np.max(np.abs(traces.ric2 - traces.ric2.conj().T)) < 1e-13
        # the mixed traces are mutual conjugate transposes
        assert np.max(np.abs(traces.ric4 - traces.ric3.conj().T)) < 1e-13


class TestStructuralIdentities:
    def test_q_squared_positive_semidefinite(self):
        for name in ("F1", "F3"):
            point = ChernPoint.from_spec(
                fixture(name), fixture(name).region.base_point(2)
            )
            q = q_squared_frame(point.torsion_frame)
            eigs = np.linalg.eigvalsh(q)
            assert eigs[0] > -1e-12, f"{name}: Q^2 has eigenvalue {eigs[0]:.3e}"

    def test_first_bianchi_on_fixtures(self):
        for name, z in (
            ("F1", np.array([0.05 + 0.02j, -0.04j])),
            ("F2", np.array([0.3 + 0.1j, 0.2j])),
            ("F3", np.array([0.7 + 0.1j, -0.3j])),
            ("F4", np.array([0.5 + 0.5j, 1.0 + 0j])),
        ):
            residual = first_bianchi_residual(fixture(name), z)
            assert residual < 1e-6, f"{name}: Bianchi residual {residual:.3e}"

    def test_first_bianchi_stacks_per_point(self):
        for name in ("F1", "F2", "F3", "F4"):
            spec = fixture(name)
            points = spec.region.sample_points(spec.n, np.random.default_rng(5), 6)
            stacked = first_bianchi_residual(spec, points.reshape(2, 3, spec.n))
            assert stacked.shape == (2, 3)
            single = [first_bianchi_residual(spec, z) for z in points]
            assert all(value.shape == () for value in single)
            assert np.array_equal(stacked.reshape(-1), np.array(single)), name

    def test_pluriclosed_hopf_two(self):
        direct, symmetry = pluriclosed_residuals(self.hopf_jet())
        assert direct < 1e-12
        assert symmetry < 1e-12

    def hopf_jet(self):
        return metric_jet(hopf(2), np.array([0.8 + 0.1j, -0.2 + 0.5j]))

    def test_pluriclosed_kaehler(self):
        jet = metric_jet(poincare_polydisk(2), np.array([0.2 + 0.3j, -0.1j]))
        direct, symmetry = pluriclosed_residuals(jet)
        assert direct < 1e-12
        assert symmetry < 1e-12

    def test_not_pluriclosed_fixture_one(self):
        jet = metric_jet(fixture("F1"), np.zeros(2, dtype=complex))
        direct, symmetry = pluriclosed_residuals(jet)
        assert direct > 0.1
        # both routes measure the same defect
        assert abs(direct - symmetry) < 1e-10


class TestNormalChart:
    """The composed chart's jet is folded exactly over its tree, so the three
    relations hold to rounding; the stencil scheme still reaches them to its
    truncation error."""

    def test_flat_chart_is_exact(self):
        chart = normal_coordinates(flat(2), np.array([0.3 + 0.1j, -0.2j]))
        assert np.allclose(chart.S, np.eye(2))
        assert np.max(np.abs(chart.C)) < 1e-12
        for value in chart.residuals.values():
            assert value < 1e-14

    def test_fixture_one_origin_has_no_quadratic_term(self):
        # first derivatives at 0 are antisymmetric, so the quadratic
        # correction vanishes and S is the identity
        chart = normal_coordinates(fixture("F1"), np.zeros(2, dtype=complex))
        assert np.allclose(chart.S, np.eye(2), atol=1e-12)
        assert np.max(np.abs(chart.C)) < 1e-12
        for value in chart.residuals.values():
            assert value < 1e-14

    def test_poincare_disk_at_interior_point(self):
        chart = normal_coordinates(poincare_polydisk(1), np.array([0.3 + 0j]))
        for value in chart.residuals.values():
            assert value < 1e-14

    @pytest.mark.parametrize(
        "spec, point",
        [(fixture("F1"), [0.05 + 0.02j, -0.03j]), (hopf(2), [0.6 + 0.2j, -0.4 + 0.3j])],
    )
    def test_exact_charts(self, spec, point):
        chart = normal_coordinates(spec, np.array(point, dtype=complex))
        for key, value in chart.residuals.items():
            assert value < 1e-14, key


STACK_METRICS = {
    "P1": poincare_polydisk(1),
    "F1": fixture("F1"),
    "H3": hopf(3),
}


def stacked_jet(spec, points: np.ndarray) -> MetricJet:
    """One jet whose arrays stack the per-point jets along the leading axes."""
    flat_points = points.reshape(-1, spec.n)
    jets = [metric_jet(spec, z) for z in flat_points]
    lead = points.shape[:-1]

    def stack(name):
        return np.stack([getattr(j, name) for j in jets]).reshape(
            lead + getattr(jets[0], name).shape
        )

    return MetricJet(stack("point"), stack("g"), stack("d_g"), stack("dd_g"))


def one_jet(jet: MetricJet, idx: tuple) -> MetricJet:
    return MetricJet(jet.point[idx], jet.g[idx], jet.d_g[idx], jet.dd_g[idx])


def assert_close(batched: np.ndarray, single: np.ndarray, label: str) -> None:
    scale = max(float(np.max(np.abs(single))), 1e-300)
    gap = float(np.max(np.abs(batched - single)))
    assert gap <= 1e-13 * scale, f"{label}: off by {gap:.3e} at scale {scale:.3e}"


def chern_quantities(jet: MetricJet) -> dict:
    gamma = connection_coefficients(jet)
    torsion = chern_torsion(jet)
    curvature = chern_curvature(jet)
    traces = ricci_traces(jet)
    point = ChernPoint.from_jet(jet)
    return {
        "gamma": gamma,
        "torsion": torsion,
        "torsion(gamma)": chern_torsion(jet, gamma),
        "curvature": curvature,
        "curvature(gamma)": chern_curvature(jet, gamma),
        "ric1": traces.ric1,
        "ric2": traces.ric2,
        "ric3": traces.ric3,
        "ric4": traces.ric4,
        "g_up": point.g_up,
        "L": point.frame.L,
        "L_inv": point.frame.L_inv,
        "torsion_frame": point.torsion_frame,
        "curvature_frame": point.curvature_frame,
        "q_frame": q_squared_frame(point.torsion_frame),
        "q_chart": q_squared_chart(point.torsion, point.g, point.g_up),
        "eta": torsion_trace_frame(point.torsion_frame),
    }


class TestStackedJets:
    @given(
        name=st.sampled_from(sorted(STACK_METRICS)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        lead=st.sampled_from([(1,), (5,), (2, 3)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_batched_formulas_equal_pointwise_loop(self, name, seed, lead):
        spec = STACK_METRICS[name]
        count = int(np.prod(lead))
        points = spec.region.sample_points(spec.n, np.random.default_rng(seed), count)
        jet = stacked_jet(spec, points.reshape(lead + (spec.n,)))
        assert jet.n == spec.n
        batched = chern_quantities(jet)
        for idx in np.ndindex(*lead):
            single = chern_quantities(one_jet(jet, idx))
            for key, value in single.items():
                assert batched[key][idx].shape == value.shape, key
                assert_close(batched[key][idx], value, f"{name} {key} at {idx}")

    @given(
        name=st.sampled_from(sorted(STACK_METRICS)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_chart_torsion_square_is_frame_square_moved_back(self, name, seed):
        spec = STACK_METRICS[name]
        points = spec.region.sample_points(spec.n, np.random.default_rng(seed), 4)
        point = ChernPoint.from_jet(stacked_jet(spec, points))
        l = point.frame.L
        moved = l @ q_squared_frame(point.torsion_frame) @ np.conj(np.swapaxes(l, -2, -1))
        chart = q_squared_chart(point.torsion, point.g, point.g_up)
        scale = max(1.0, float(np.max(np.abs(moved))))
        assert np.max(np.abs(chart - moved)) <= 1e-12 * scale
        assert np.max(np.abs(chart - np.conj(np.swapaxes(chart, -2, -1)))) <= 1e-12 * scale


# The four traces as single einsums over the curvature's index patterns.
TRACE_PATTERNS = {
    "ric1": "...ij,...klij->...kl",
    "ric2": "...ij,...ijkl->...kl",
    "ric3": "...ij,...kjil->...kl",
    "ric4": "...ij,...ilkj->...kl",
}


@pytest.mark.parametrize("name", sorted(STACK_METRICS))
@pytest.mark.parametrize("lead", [(), (1,), (7,), (2, 3)])
def test_ricci_traces_match_direct_contractions(name, lead):
    spec = STACK_METRICS[name]
    count = max(1, int(np.prod(lead)))
    points = spec.region.sample_points(spec.n, np.random.default_rng(11), count)
    jet = metric_jet(spec, points.reshape(lead + (spec.n,)))
    r = chern_curvature(jet)
    traces = ricci_traces(jet, r)
    for key, pattern in TRACE_PATTERNS.items():
        want = np.einsum(pattern, jet.g_up, r)
        got = getattr(traces, key)
        assert got.shape == want.shape, key
        scale = max(float(np.max(np.abs(want))), 1e-300)
        ulps = float(np.max(np.abs(got - want))) / (np.finfo(float).eps * scale)
        assert ulps <= 4.0, f"{name} {key} {lead}: off by {ulps:.1f} ulp of its largest entry"
