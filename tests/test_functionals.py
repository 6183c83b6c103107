"""Functional-level oracles.

Frozen reference values used below:

* poincare_polydisk(2) at 0 in the unitary frame: HSC(zeta) =
  -2 (|z1|^4 + |z2|^4) / |zeta|^4, so the supremum over unit vectors is -1
  at (1, 1)/sqrt(2) and the infimum is -2 on the axes.
* fixture F1 at 0: Ric^(2) = 0.4 I, torsion square Q = diag(8, 0), so
  Ric^tau at tau = inf is diag(2.4, 0.4).
* hopf(2) is pluriclosed, so RBC^0 must equal half the altered sectional
  functional on every form.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import functionals
from curvlab.chern import ChernPoint, form_pairing, pluriclosed_residuals
from curvlab.errors import ConfigError, NumericalError
from curvlab.functionals import (
    BoundCertificate,
    TauParam,
    altered_hsc,
    extremize_hsc,
    extremize_rbc,
    hsc,
    hsc_certificates,
    rbc,
    rbc_certificates,
    rbc_forms,
    ric_tau,
    ric_tau_frame,
)
from curvlab.metric_model import builtin_metric, example22, fixture, metric_jet
from curvlab.tensor_core import PSDForm, hermitian_part, psd_project, psd_project_batch


def point_of(name, z):
    return ChernPoint.from_spec(fixture(name), np.asarray(z, dtype=complex))


def random_form(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return psd_project(a @ a.conj().T)


class TestTauParam:
    def test_roles_and_ranges(self):
        assert TauParam(0.0, "target").target_weight == 0.25
        assert TauParam(1.0, "target").target_weight == 0.0
        assert TauParam(math.inf, "source").source_weight == 0.25
        assert TauParam(2.0, "source").source_weight == 0.125

    def test_forbidden_endpoints(self):
        with pytest.raises(ConfigError):
            TauParam(math.inf, "target")
        with pytest.raises(ConfigError):
            TauParam(0.0, "source")
        with pytest.raises(ConfigError):
            TauParam(-0.5, "target")
        with pytest.raises(ConfigError):
            TauParam(1.0, "middle")

    def test_role_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            _ = TauParam(1.0, "source").target_weight
        with pytest.raises(ConfigError):
            _ = TauParam(1.0, "target").source_weight


def frame_vector(point: ChernPoint, v_chart: np.ndarray) -> np.ndarray:
    """Frame components ``(..., n)`` of chart tangent vectors, by the frame's ``L``."""
    return np.einsum("...ki,...k->...i", point.frame.L, np.asarray(v_chart, dtype=complex))


class TestSectional:
    def test_poincare_polydisk_axis_values(self):
        pt = point_of("F2", [0.3, -0.2j])
        e1 = frame_vector(pt, np.array([1.0, 0.0]))
        e2 = frame_vector(pt, np.array([0.0, 1.0]))
        assert abs(hsc(pt, e1) + 2.0) < 1e-10, f"axis HSC {hsc(pt, e1)}"
        assert abs(hsc(pt, e2) + 2.0) < 1e-10

    @pytest.mark.parametrize("name, points", [
        ("F2", [[0.3, -0.2j], [0.1, 0.25]]),
        ("F1", [[0.05, -0.02], [0.01j, 0.03], [0.0, 0.1 - 0.05j]]),
    ])
    def test_frame_vector_stacks_per_point(self, name, points):
        points = np.array(points, dtype=complex)
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=points.shape) + 1j * rng.normal(size=points.shape)
        stacked = frame_vector(point_of(name, points), vectors)
        assert stacked.shape == points.shape
        for k, z in enumerate(points):
            np.testing.assert_allclose(stacked[k], frame_vector(point_of(name, z), vectors[k]),
                                       rtol=1e-14, atol=0)

    def test_poincare_polydisk_range(self):
        pt = point_of("F2", [0.1, 0.25])
        rng = np.random.default_rng(7)
        for _ in range(50):
            zeta = rng.normal(size=2) + 1j * rng.normal(size=2)
            value = hsc(pt, zeta)
            assert -2.0 - 1e-10 <= value <= -1.0 + 1e-10, f"HSC {value} out of range"

    def test_hbc_diagonal_matches_hsc(self):
        # bisectional curvature is the pairing of two rank-one forms; on the
        # diagonal it is the sectional curvature
        pt = point_of("F1", [0.05, -0.02])
        rng = np.random.default_rng(3)
        zeta = rng.normal(size=2) + 1j * rng.normal(size=2)
        form = np.outer(zeta, np.conj(zeta))[None]
        hbc = form_pairing(pt.curvature_frame, form, form)[0] / np.vdot(zeta, zeta).real ** 2
        assert abs(hbc.imag) < 1e-12
        assert abs(hbc.real - hsc(pt, zeta)) < 1e-12

    def test_zero_vector_rejected(self):
        pt = point_of("F4", [0.0, 0.0])
        with pytest.raises(ConfigError):
            hsc(pt, np.zeros(2))


class TestRbc:
    def test_rank_one_tau_one_matches_hsc(self):
        pt = point_of("F1", [0.08, 0.03 + 0.02j])
        rng = np.random.default_rng(11)
        tau = TauParam(1.0, "target")
        for _ in range(20):
            zeta = rng.normal(size=2) + 1j * rng.normal(size=2)
            zeta /= np.linalg.norm(zeta)
            form = PSDForm(np.outer(zeta, np.conj(zeta)))  # unit zeta: a unit form
            diff = abs(rbc(pt, form, tau) - hsc(pt, zeta))
            assert diff < 1e-12, f"rank-one mismatch {diff}"

    def test_tau_one_drops_torsion_exactly(self):
        pt = point_of("F1", [0.0, 0.0])
        rng = np.random.default_rng(5)
        form = random_form(rng, 2)
        tempered = rbc(pt, form, TauParam(1.0, "target"))
        entries = form.entries
        bare = np.einsum("abcd,ab,cd->", pt.curvature_frame, entries, entries)
        norm2 = float(np.real(np.sum(entries * np.conj(entries))))
        assert tempered == float(np.real(bare)) / norm2

    def test_pluriclosed_rbc_zero_is_half_altered(self):
        # hopf(2) is pluriclosed; the relation is specific to that class
        pt = point_of("F3", [0.6, -0.3 + 0.2j])
        r_direct, _ = pluriclosed_residuals(
            metric_jet(fixture("F3"), np.array([0.6, -0.3 + 0.2j]))
        )
        assert r_direct < 1e-6, f"hopf should be pluriclosed, got {r_direct}"
        rng = np.random.default_rng(23)
        tau0 = TauParam(0.0, "target")
        for _ in range(8):
            form = random_form(rng, 2)
            lhs = rbc(pt, form, tau0)
            rhs = 0.5 * altered_hsc(pt, form)
            assert abs(lhs - rhs) < 1e-8, f"RBC^0 {lhs} vs half altered {rhs}"

    def test_not_pluriclosed_relation_fails(self):
        # F1 is not pluriclosed at the origin, so the relation must break on
        # some form (rank-one forms happen to satisfy it here; full rank does not)
        pt = point_of("F1", [0.0, 0.0])
        form = random_form(np.random.default_rng(0), 2)
        lhs = rbc(pt, form, TauParam(0.0, "target"))
        rhs = 0.5 * altered_hsc(pt, form)
        assert abs(lhs - rhs) > 1e-3

    @given(
        tau_low=st.floats(min_value=0.0, max_value=3.0),
        bump=st.floats(min_value=1e-3, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_tau(self, tau_low, bump, seed):
        # the torsion square contracts to sum_rho |T xi|^2 >= 0, so raising
        # tau can only raise the tempered value
        pt = point_of("F1", [0.0, 0.0])
        form = random_form(np.random.default_rng(seed), 2)
        low = rbc(pt, form, TauParam(tau_low, "target"))
        high = rbc(pt, form, TauParam(tau_low + bump, "target"))
        assert high >= low - 1e-12, f"RBC not monotone: {low} -> {high}"


class TestRicTau:
    def test_f1_values(self):
        pt = point_of("F1", [0.0, 0.0])
        ric2 = ric_tau_frame(pt, TauParam(1.0, "source"))
        assert np.allclose(ric2, 0.4 * np.eye(2), atol=1e-9), f"Ric2 {ric2}"
        full = ric_tau_frame(pt, TauParam(math.inf, "source"))
        assert np.allclose(full, np.diag([2.4, 0.4]), atol=1e-9), f"Ric^inf {full}"

    def test_tau_one_is_bit_identical(self):
        pt = point_of("F3", [0.5, 0.1 - 0.3j])
        tau = TauParam(1.0, "source")
        frame_ref = np.einsum("iikl->kl", pt.curvature_frame)
        assert np.array_equal(ric_tau_frame(pt, tau), frame_ref)
        chart_ref = np.einsum("ij,ijkl->kl", pt.g_up, pt.curvature, optimize=True)
        assert np.array_equal(ric_tau(pt, tau), chart_ref)

    def test_chart_and_frame_agree(self):
        pt = point_of("F1", [0.1, -0.07 + 0.04j])
        tau = TauParam(2.5, "source")
        chart = ric_tau(pt, tau)
        frame = ric_tau_frame(pt, tau)
        l = pt.frame.L
        pulled = np.linalg.solve(l, np.linalg.solve(l, chart.conj().T).conj().T)
        assert np.allclose(pulled, frame, atol=1e-10)

    @given(
        tau_low=st.floats(min_value=0.05, max_value=8.0),
        bump=st.floats(min_value=1e-3, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_slope_is_psd(self, tau_low, bump):
        pt = point_of("F1", [0.0, 0.0])
        low = ric_tau_frame(pt, TauParam(tau_low, "source"))
        high = ric_tau_frame(pt, TauParam(tau_low + bump, "source"))
        eigs = np.linalg.eigvalsh(high - low)
        assert eigs.min() >= -1e-12, f"tempered slope not PSD: {eigs}"


class TestExtremizers:
    def test_poincare_polydisk_hsc_bounds(self):
        pt = point_of("F2", [0.0, 0.0])
        sup = extremize_hsc(pt, "sup", seed=1, starts=16, steps=120)
        inf = extremize_hsc(pt, "inf", seed=1, starts=16, steps=120)
        assert abs(sup.value + 1.0) < 1e-3, f"sup HSC {sup.value}"
        assert abs(inf.value + 2.0) < 1e-3, f"inf HSC {inf.value}"
        # the balanced direction achieves the supremum
        mags = np.abs(sup.witness)
        assert np.allclose(mags, math.sqrt(0.5), atol=5e-3), f"witness {mags}"

    def test_certificate_reevaluates(self):
        pt = point_of("F2", [0.0, 0.0])
        cert = extremize_hsc(pt, "sup", seed=4, starts=8, steps=80)
        assert isinstance(cert, BoundCertificate)
        again = hsc(pt, cert.witness)
        assert abs(again - cert.value) <= cert.tolerance

    def test_flat_rbc_is_zero(self):
        pt = point_of("F4", [0.2, -0.1])
        cert = extremize_rbc(pt, TauParam(0.0, "target"), "sup", seed=2, starts=4, steps=30)
        assert abs(cert.value) < 1e-12

    def test_rbc_certificate_dominates_sampling(self):
        pt = point_of("F1", [0.0, 0.0])
        tau = TauParam(0.5, "target")
        sup = extremize_rbc(pt, tau, "sup", seed=3, starts=12, steps=80)
        inf = extremize_rbc(pt, tau, "inf", seed=3, starts=12, steps=80)
        check = psd_project(np.asarray(sup.witness))
        assert abs(rbc(pt, check, tau) - sup.value) <= 1e-10
        rng = np.random.default_rng(17)
        for _ in range(200):
            probe = rbc(pt, random_form(rng, 2), tau)
            assert probe <= sup.value + 1e-9, f"probe {probe} above sup {sup.value}"
            assert probe >= inf.value - 1e-9, f"probe {probe} below inf {inf.value}"

    def test_batched_ascent_is_deterministic(self):
        pt = point_of("F1", [0.05, -0.02 + 0.01j])
        tau = TauParam(0.5, "target")
        for run in (
            lambda: extremize_hsc(pt, "inf", seed=9, starts=8, steps=50),
            lambda: extremize_rbc(pt, tau, "sup", seed=9, starts=8, steps=50),
        ):
            first, second = run(), run()
            assert first.value == second.value
            assert np.array_equal(first.witness, second.witness)
            assert first.ascent_iterations == second.ascent_iterations

    @pytest.mark.parametrize("kind", ["sup", "inf"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_starts_advance_independently(self, kind, seed):
        # the first four draws of a seed are shared, and no start's path
        # depends on the others, so more starts can only match or improve
        pt = point_of("F3", [0.6, -0.3 + 0.2j])
        tau = TauParam(0.0, "target")
        better = (lambda a, b: a >= b) if kind == "sup" else (lambda a, b: a <= b)
        four = extremize_hsc(pt, kind, seed=seed, starts=4, steps=30)
        eight = extremize_hsc(pt, kind, seed=seed, starts=8, steps=30)
        assert better(eight.value, four.value)
        four = extremize_rbc(pt, tau, kind, seed=seed, starts=4, steps=30)
        eight = extremize_rbc(pt, tau, kind, seed=seed, starts=8, steps=30)
        assert better(eight.value, four.value)

    def test_bad_sizes_rejected(self):
        pt = point_of("F4", [0.0, 0.0])
        tau = TauParam(0.0, "target")
        for starts, steps in ((0, 5), (-2, 5), (2, -1)):
            with pytest.raises(ConfigError):
                extremize_hsc(pt, "sup", starts=starts, steps=steps)
            with pytest.raises(ConfigError):
                extremize_rbc(pt, tau, "sup", starts=starts, steps=steps)
        cert = extremize_rbc(pt, tau, "sup", starts=3, steps=0)
        assert cert.ascent_iterations == 0

    def test_projection_errors_propagate(self, monkeypatch):
        # only a collapsed projection is masked; any other failure surfaces
        def failing(m):
            raise NumericalError("eigensolver failed")

        monkeypatch.setattr(functionals, "psd_project_batch", failing)
        pt = point_of("F1", [0.0, 0.0])
        with pytest.raises(NumericalError, match="eigensolver"):
            extremize_rbc(pt, TauParam(0.0, "target"), "sup", starts=2, steps=3)

    def test_bad_kind_rejected(self):
        pt = point_of("F4", [0.0, 0.0])
        with pytest.raises(ConfigError):
            extremize_hsc(pt, "max", starts=2, steps=5)


# Certificates of the one-start-at-a-time ascent that the batched ascent
# replaced, at 4 starts x 30 steps with seed 0.  The batched ascent runs the
# same iterates, so its values agree to round-off.
PINNED_POINTS = {
    "F1": (fixture("F1"), [0.05, -0.02 + 0.01j]),
    "P2": (builtin_metric("poincare_polydisk", 2), [0.3, -0.2j]),
    "H2": (builtin_metric("hopf", 2), [0.6, -0.3 + 0.2j]),
}
PINNED = {
    ("F1", "hsc", "sup"): -0.0865294250163503,
    ("F1", "rbc0", "sup"): -0.08652942501635018,
    ("F1", "rbc1", "sup"): 0.364421087337342,
    ("F1", "rbc2", "sup"): 1.306477143540054,
    ("F1", "hsc", "inf"): -0.10695801945477834,
    ("F1", "rbc0", "inf"): -0.577932478563351,
    ("F1", "rbc1", "inf"): -0.10695801945477838,
    ("F1", "rbc2", "inf"): -0.1069580194547785,
    ("P2", "hsc", "sup"): -0.9999999999999998,
    ("P2", "rbc0", "sup"): -1.0,
    ("P2", "rbc1", "sup"): -1.0,
    ("P2", "rbc2", "sup"): -1.0,
    ("P2", "hsc", "inf"): -2.0000000000000018,
    ("P2", "rbc0", "inf"): -2.000000000000001,
    ("P2", "rbc1", "inf"): -2.000000000000001,
    ("P2", "rbc2", "inf"): -2.000000000000001,
    ("H2", "hsc", "sup"): 1.0000000000000002,
    ("H2", "rbc0", "sup"): 1.0590169943749477,
    ("H2", "rbc1", "sup"): 1.2071067811865477,
    ("H2", "rbc2", "sup"): 1.4013878188659974,
    ("H2", "hsc", "inf"): 8.709569932178643e-18,
    ("H2", "rbc0", "inf"): 3.4694469519536134e-18,
    ("H2", "rbc1", "inf"): -2.7755575615628914e-17,
    ("H2", "rbc2", "inf"): -6.938893903907228e-18,
}


@pytest.mark.parametrize("name,functional,kind", sorted(PINNED))
def test_pinned_certificates(name, functional, kind):
    spec, z = PINNED_POINTS[name]
    pt = ChernPoint.from_spec(spec, np.asarray(z, dtype=complex))
    if functional == "hsc":
        cert = extremize_hsc(pt, kind, seed=0, starts=4, steps=30)
    else:
        tau = TauParam(float(functional[3:]), "target")
        cert = extremize_rbc(pt, tau, kind, seed=0, starts=4, steps=30)
    assert abs(cert.value - PINNED[name, functional, kind]) <= 1e-12


# ---------------------------------------------------------------------------
# the seeded starts: one batched draw per call, bit for bit the per-start draws


def per_start_draws(functional, n, seed, starts):
    """The starts drawn one at a time, as the extremizers once did: the oracle."""
    rng = np.random.default_rng(seed)
    basis = functionals._hermitian_basis(n)
    rows = []
    for _ in range(starts):
        if functional == "hsc":
            raw = rng.normal(size=2 * n)
            rows.append(raw / np.linalg.norm(raw))
        else:
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = hermitian_part(raw @ raw.conj().T)
            coeffs = np.array([float(np.real(np.sum(h * np.conj(e)))) for e in basis])
            rows.append(coeffs / np.linalg.norm(coeffs))
    return np.array(rows)


@pytest.fixture
def certified(monkeypatch):
    """The ``draw`` and the first scored rows of each ``_certify`` call, in order."""
    calls = []
    certify = functionals._certify

    def recording(objective, draw, *args):
        call = {"draw": draw}
        calls.append(call)

        def first_scored(params, owner):
            call.setdefault("rows", (params.copy(), owner.copy()))
            return objective(params, owner)

        return certify(first_scored, draw, *args)

    monkeypatch.setattr(functionals, "_certify", recording)
    return calls


@pytest.mark.parametrize("functional", ["hsc", "rbc2"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_draws_are_the_per_start_bytes(certified, functional, n):
    pt = ChernPoint.from_spec(builtin_metric("flat", n), np.zeros(n))
    certificates(pt, functional, "sup", starts=1, steps=0)
    (call,) = certified
    for seed in range(50):
        oracle = per_start_draws(functional, n, seed, 20)
        for starts in range(1, 21):
            drawn = call["draw"](np.random.default_rng(seed), starts)
            assert drawn.tobytes() == oracle[:starts].tobytes(), (seed, starts)


@pytest.mark.parametrize("functional", ["hsc", "rbc0"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_point_of_a_stack_gets_the_same_starts(certified, functional, n):
    spec = builtin_metric("poincare_polydisk", n)
    pt = region_point(spec, 3, seed=n)
    certificates(pt, functional, "inf", starts=6, steps=0, seed=4)
    params, owner = certified[0]["rows"]
    rows = params.reshape(3, -1, params.shape[-1])
    assert np.array_equal(owner, np.repeat(np.arange(3), rows.shape[1]))
    oracle = per_start_draws(functional, n, 4, 6)
    for p in range(3):
        assert rows[p, -6:].tobytes() == oracle.tobytes(), p


def scalar_hsc(r, zeta):
    """The one-vector holomorphic sectional curvature formula, as a loop body."""
    value = np.einsum("abcd,a,b,c,d->", r, zeta, np.conj(zeta), zeta, np.conj(zeta), optimize=True)
    return float(np.real(value)) / float(np.real(np.vdot(zeta, zeta))) ** 2


def scalar_rbc(r, t, weight, xi):
    """The one-form tempered real bisectional curvature formula, as a loop body."""
    value = np.einsum("abcd,ab,cd->", r, xi, xi, optimize=True)
    if weight != 0.0:
        value = value - weight * np.einsum("acr,bdr,ab,cd->", t, np.conj(t), xi, xi, optimize=True)
    return float(np.real(value)) / float(np.real(np.sum(xi * np.conj(xi))))


KERNEL_POINTS = [
    ("F1", [0.05, -0.02 + 0.01j]),
    ("F3", [0.6, -0.3 + 0.2j]),
    ("hopf3", [0.5, 0.2j, -0.3]),
]


def kernel_point(name, z):
    spec = builtin_metric("hopf", 3) if name == "hopf3" else fixture(name)
    return ChernPoint.from_spec(spec, np.asarray(z, dtype=complex))


@given(
    which=st.integers(min_value=0, max_value=len(KERNEL_POINTS) - 1),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    batch=st.integers(min_value=1, max_value=12),
    tau=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
@settings(max_examples=40, deadline=None)
def test_batched_kernels_match_scalar_loop(which, seed, batch, tau):
    pt = kernel_point(*KERNEL_POINTS[which])
    n = pt.g.shape[0]
    rng = np.random.default_rng(seed)
    zeta = rng.normal(size=(batch, n)) + 1j * rng.normal(size=(batch, n))
    got = functionals._form_values(
        pt.curvature_frame, functionals._rank_one(zeta), "sectional curvature"
    )
    want = [scalar_hsc(pt.curvature_frame, z) for z in zeta]
    assert np.max(np.abs(got - want)) <= 1e-13

    # PSD forms of every rank from 1 to n, unnormalised
    ranks = rng.integers(1, n + 1, size=batch)
    forms = np.zeros((batch, n, n), dtype=complex)
    for i, rank in enumerate(ranks):
        v = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        forms[i] = v @ v.conj().T
    tau_param = TauParam(tau, "target")
    tensor = functionals._tempered_tensor(pt, tau_param)
    got = functionals._form_values(tensor, forms, "real bisectional curvature")
    want = [
        scalar_rbc(pt.curvature_frame, pt.torsion_frame, tau_param.target_weight, xi)
        for xi in forms
    ]
    assert np.max(np.abs(got - want)) <= 1e-13


# ---------------------------------------------------------------------------
# the Lagrangian dual: two-sided certificates


def certificates(point, functional, kind, starts=4, steps=30, seed=0):
    """``hsc`` or ``rbc<tau>`` certificates at the point(s) of ``point``."""
    if functional == "hsc":
        return hsc_certificates(point, kind, seed, starts, steps)
    tau = TauParam(float(functional[3:]), "target")
    return rbc_certificates(point, tau, kind, seed, starts, steps)


def ascent_extremum(point, functional, kind, starts=16, steps=120, seed=0):
    """The best end point of a plain multistart ascent, with no dual witness.

    HSC is RBC at tau = 1 on rank-one forms; RBC forms are projected onto the
    PSD cone, as in the extremizer, from real coordinates over a Hermitian basis.
    """
    n = point.g.shape[-1]
    maximize = kind == "sup"
    basis = functionals._hermitian_basis(n)
    tau = TauParam(1.0 if functional == "hsc" else float(functional[3:]), "target")

    def objective(rows, owner):
        if functional == "hsc":
            zeta = rows[:, :n] + 1j * rows[:, n:]
            forms, keep = functionals._rank_one(zeta), np.linalg.norm(zeta, axis=1) > 1e-12
        else:
            forms, keep = psd_project_batch(np.tensordot(rows, basis, axes=1))
        values = np.full(len(rows), -math.inf if maximize else math.inf)
        values[keep] = rbc_forms(point, forms[keep], tau)
        return values

    rng = np.random.default_rng(seed)
    if functional == "hsc":
        x0 = rng.normal(size=(starts, 2 * n))
    else:
        x0 = np.real(np.einsum("sab,iab->si", sample_forms(rng, n, starts), np.conj(basis)))
    _, values, _ = functionals._ascend(objective, x0, np.zeros(starts, dtype=int), maximize, steps)
    return float(values.max() if maximize else values.min())


def sample_forms(rng, n, count):
    """Unit PSD forms ``(count, n, n)``: rank one, rank two, and near-singular full rank."""
    forms = []
    for k in range(count):
        rank = 1 + k % min(n, 2)
        v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        weights = np.zeros(n)
        weights[:rank] = rng.uniform(0.1, 1.0, size=rank)
        if k % 3 == 2:
            weights[rank:] = 10.0 ** rng.uniform(-12, -6, size=n - rank)
        v = v * np.sqrt(weights)
        forms.append(v @ v.conj().T)
    forms = np.array(forms)
    return forms / np.linalg.norm(forms, axis=(1, 2), keepdims=True)


_A3 = np.random.default_rng(5).normal(size=(3, 3, 3, 2)) @ np.array([1.0, 1.0j])
SOUNDNESS_METRICS = {
    "example22": fixture("F1"),
    "poincare_polydisk(2)": builtin_metric("poincare_polydisk", 2),
    "hopf(2)": builtin_metric("hopf", 2),
    "hopf(3)": builtin_metric("hopf", 3),
    "example22(3)": example22(3, 0.5 * (_A3 - np.swapaxes(_A3, 0, 1)), 0.2),
}
# the forms above probe the functional to round-off; the bound must hold to it
ROUNDOFF = 1e-13


class TestLagrangianDual:
    def test_pinned_pool_gaps_close_without_ascent(self):
        worst = 0.0
        for name, functional, kind in sorted(PINNED):
            spec, z = PINNED_POINTS[name]
            pt = ChernPoint.from_spec(spec, np.asarray(z, dtype=complex))
            (cert,) = certificates(pt, functional, kind)
            assert cert.ascent_iterations == 0, (name, functional, kind)
            assert cert.samples == 4
            relative = cert.gap / max(1.0, abs(cert.value))
            assert -ROUNDOFF <= relative <= cert.tolerance, (name, functional, kind, cert.gap)
            worst = max(worst, relative)
        print(f"\ndual: largest gap {worst:.2e} of max(1, |value|) over the "
              f"{len(PINNED)} pinned certificates (tol 1e-12), no ascent steps")

    def test_gaps_close_to_round_off_on_a_region(self):
        # example22 has large torsion; wherever the Newton search stops short
        # of the optimal multiplier, the top eigenvector alone leaves its share
        # mu x^T J x, which the isotropic second candidate removes
        spec = fixture("F1")
        points = spec.region.sample_points(2, np.random.default_rng(0), 256)
        pt = ChernPoint.from_jet(metric_jet(spec, points))
        worst = 0.0
        for functional in ("hsc", "rbc0", "rbc1", "rbc2"):
            for kind in ("sup", "inf"):
                for cert in certificates(pt, functional, kind, starts=1, steps=0):
                    worst = max(worst, cert.gap / max(1.0, abs(cert.value)))
        assert worst <= ROUNDOFF, worst

    @pytest.mark.parametrize("name", sorted(PINNED_POINTS))
    @pytest.mark.parametrize("functional", ["hsc", "rbc0", "rbc1", "rbc2"])
    @pytest.mark.parametrize("kind", ["sup", "inf"])
    def test_dual_matches_long_ascent(self, name, functional, kind):
        spec, z = PINNED_POINTS[name]
        pt = ChernPoint.from_spec(spec, np.asarray(z, dtype=complex))
        (cert,) = certificates(pt, functional, kind)
        climbed = ascent_extremum(pt, functional, kind)
        assert abs(cert.value - climbed) <= 1e-12 * max(1.0, abs(climbed))
        assert abs(cert.bound - climbed) <= 1e-12 * max(1.0, abs(climbed))

    @pytest.mark.parametrize("functional", ["hsc", "rbc0", "rbc1", "rbc2"])
    def test_closed_forms(self, functional):
        # bidisk: HSC and RBC range over [-2, -1]; disk: -2; flat: 0
        cases = [
            (builtin_metric("poincare_polydisk", 2), [0.0, 0.0], -1.0, -2.0),
            (builtin_metric("poincare_polydisk", 2), [0.3, -0.2j], -1.0, -2.0),
            (builtin_metric("poincare_polydisk", 2), [-0.45 + 0.1j, 0.25j], -1.0, -2.0),
            (builtin_metric("poincare_polydisk", 1), [0.35 - 0.2j], -2.0, -2.0),
            (builtin_metric("flat", 2), [0.2, -0.1], 0.0, 0.0),
        ]
        for spec, z, top, bottom in cases:
            pt = ChernPoint.from_spec(spec, np.asarray(z, dtype=complex))
            for kind, want in (("sup", top), ("inf", bottom)):
                (cert,) = certificates(pt, functional, kind)
                assert abs(cert.value - want) <= 1e-12, (spec.name, z, kind, cert.value)
                assert abs(cert.bound - want) <= 1e-12, (spec.name, z, kind, cert.bound)
                assert cert.ascent_iterations == 0

    @given(
        name=st.sampled_from(sorted(SOUNDNESS_METRICS)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        functional=st.sampled_from(["hsc", "rbc0", "rbc0.5", "rbc1", "rbc2"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_sample_beats_the_bound(self, name, seed, functional):
        spec = SOUNDNESS_METRICS[name]
        rng = np.random.default_rng(seed)
        points = spec.region.sample_points(spec.n, rng, 3)
        pt = ChernPoint.from_jet(metric_jet(spec, points))
        sup = certificates(pt, functional, "sup", starts=2, steps=5, seed=seed % 7)
        inf = certificates(pt, functional, "inf", starts=2, steps=5, seed=seed % 7)
        n = spec.n
        if functional == "hsc":
            zeta = rng.normal(size=(3, 60, n)) + 1j * rng.normal(size=(3, 60, n))
            zeta /= np.linalg.norm(zeta, axis=-1, keepdims=True)
            probes = rbc_forms(pt, zeta[..., :, None] * np.conj(zeta[..., None, :]),
                               TauParam(1.0, "target"))
        else:
            forms = sample_forms(rng, n, 3 * 60).reshape(3, 60, n, n)
            probes = rbc_forms(pt, forms, TauParam(float(functional[3:]), "target"))
        for k in range(3):
            low, high = inf[k].bound, sup[k].bound
            slack = ROUNDOFF * max(1.0, abs(low), abs(high))
            assert probes[k].max() <= high + slack, (name, functional, k, probes[k].max(), high)
            assert probes[k].min() >= low - slack, (name, functional, k, probes[k].min(), low)
            # the bracket is ordered, open or closed
            assert low - slack <= inf[k].value <= sup[k].value <= high + slack
            if n <= 2:
                for cert in (sup[k], inf[k]):
                    assert cert.gap <= cert.tolerance * max(1.0, abs(cert.value))
                    assert cert.ascent_iterations == 0

    def test_open_gaps_run_the_ascent_only_there(self):
        # hopf(3) HSC sup leaves a duality gap; the RBC^0 sup there does not
        spec = builtin_metric("hopf", 3)
        points = spec.region.sample_points(3, np.random.default_rng(2), 2)
        pt = ChernPoint.from_jet(metric_jet(spec, points))
        for cert in certificates(pt, "hsc", "sup"):
            assert cert.gap > cert.tolerance and cert.ascent_iterations > 0
            assert cert.value <= cert.bound
        for cert in certificates(pt, "rbc0", "sup"):
            assert cert.gap <= cert.tolerance and cert.ascent_iterations == 0


# ---------------------------------------------------------------------------
# the multiplier search against the bisection it replaced


def bisection_bound(tensor, kind, free):
    """The dual bound after 53 halvings of the multiplier bracket, and ``||K||_2``.

    The bisection walks the same bracket on the sign of the slope at the top
    eigenvector and evaluates the bound at the midpoint of the last bracket.
    """
    sign = 1.0 if kind == "sup" else -1.0
    k = sign * functionals._quadratic_forms(tensor)
    m = k.shape[-1]
    j = functionals._minor_form(tensor.shape[-1])
    spectrum = np.linalg.eigvalsh(k)
    width = 2.0 * (spectrum[:, -1] - spectrum[:, 0])
    low = -width if free else np.zeros_like(width)
    high = width
    for _ in range(53):
        mu = 0.5 * (low + high)
        top = np.linalg.eigh(k + mu[:, None, None] * j)[1][..., -1]
        rising = np.einsum("...i,ij,...j->...", top, j, top) > 0.0
        low, high = np.where(rising, low, mu), np.where(rising, mu, high)
    mu = 0.5 * (low + high)
    eigs = np.linalg.eigvalsh(k + mu[:, None, None] * j)
    norm = np.maximum(np.abs(spectrum).max(-1), np.abs(eigs).max(-1))
    return sign * (eigs[:, -1] + m * np.finfo(float).eps * norm), np.abs(spectrum).max(-1)


def dual_tensor(point, functional):
    """The stacked tensor and multiplier range of the dual of ``hsc`` or ``rbc<tau>``."""
    if functional == "hsc":
        return functionals._stack(point.curvature_frame), True
    tau = TauParam(float(functional[3:]), "target")
    return functionals._stack(functionals._tempered_tensor(point, tau)), False


def dual_bound(tensor, kind, free):
    """``_dual_bound`` at zero points: they only name a form that is not finite."""
    return functionals._dual_bound(tensor, kind, free, np.zeros((len(tensor), tensor.shape[-1])))


def region_point(spec, count, seed):
    points = spec.region.sample_points(spec.n, np.random.default_rng(seed), count)
    return ChernPoint.from_jet(metric_jet(spec, points))


ORACLE_POINTS = {
    **{f"pinned {name}": (spec, z) for name, (spec, z) in PINNED_POINTS.items()},
    "F1 region": (fixture("F1"), 256),
    "hopf(3) region": (SOUNDNESS_METRICS["hopf(3)"], 8),
    "example22(3) region": (SOUNDNESS_METRICS["example22(3)"], 8),
}


@pytest.mark.parametrize("case", sorted(ORACLE_POINTS))
def test_search_matches_bisection_oracle(case):
    # hopf(3) and example22(3) keep duality gaps open: there the bound is the
    # certificate's only upper side and must not come out looser
    spec, where = ORACLE_POINTS[case]
    if isinstance(where, int):
        pt = region_point(spec, where, seed=3)
    else:
        pt = ChernPoint.from_spec(spec, np.asarray(where, dtype=complex))
    worst = 0.0
    for functional in ("hsc", "rbc0", "rbc1", "rbc2"):
        tensor, free = dual_tensor(pt, functional)
        m = tensor.shape[-1] ** 2
        for kind in ("sup", "inf"):
            bound, _ = dual_bound(tensor, kind, free)
            oracle, norm = bisection_bound(tensor, kind, free)
            slack = 4 * m * np.finfo(float).eps * norm
            assert np.all(np.abs(bound - oracle) <= slack), (case, functional, kind)
            worst = max(worst, float(np.max(np.abs(bound - oracle) / slack)))
    print(f"\n{case}: largest distance to the bisection bound {worst:.2f} of 4 m eps ||K||_2")


@pytest.fixture
def searches(monkeypatch):
    """The matrix stacks of every ``eigh`` call the multiplier search makes, in order."""
    stacks = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_code is functionals._dual_bound.__code__:
            stacks.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return stacks


class TestMultiplierSearch:
    def test_pinned_pool_eigensolves(self, searches):
        counts = {}
        for name, functional, kind in sorted(PINNED):
            spec, z = PINNED_POINTS[name]
            pt = ChernPoint.from_spec(spec, np.asarray(z, dtype=complex))
            searches.clear()
            certificates(pt, functional, kind)
            counts[name, functional, kind] = len(searches)
        rows = [f"{name} {functional} {kind}: {count}"
                for (name, functional, kind), count in sorted(counts.items())]
        print("\neigh calls per certificate (the bisection took 54):\n  " + "\n  ".join(rows))
        print(f"largest {max(counts.values())}, median {np.median(list(counts.values()))}")
        assert max(counts.values()) <= 8, counts

    @pytest.mark.parametrize("name,count,seed", [
        ("example22", 256, 0), ("poincare_polydisk(2)", 24, 11), ("hopf(2)", 24, 11),
    ])
    def test_region_eigensolves(self, searches, name, count, seed):
        # Newton steps that do not halve fall back to the tangents: on some
        # hopf(2) points they would otherwise cycle for up to 40 evaluations
        pt = region_point(SOUNDNESS_METRICS[name], count, seed)
        for functional in ("hsc", "rbc0", "rbc1", "rbc2"):
            for kind in ("sup", "inf"):
                searches.clear()
                certificates(pt, functional, kind, starts=1, steps=0)
                assert len(searches) <= 8, (functional, kind, len(searches))
                # points leave the stack as they stop
                assert [len(stack) for stack in searches] == sorted(
                    (len(stack) for stack in searches), reverse=True
                )

    @pytest.mark.parametrize("name", ["poincare_polydisk", "hopf"])
    def test_one_dimension_stops_at_once(self, searches, name):
        # for n = 1 there are no 2x2 minors: J = 0 and every mu is optimal
        pt = region_point(builtin_metric(name, 1), 3, seed=1)
        for functional in ("hsc", "rbc0", "rbc1", "rbc2"):
            for kind in ("sup", "inf"):
                searches.clear()
                certificates(pt, functional, kind, starts=1, steps=0)
                assert [len(stack) for stack in searches] == [3], (functional, kind)

    def test_rbc_sup_at_the_end_of_the_multiplier_range(self, searches):
        # hopf(2): the top eigenvector of K has e2 > 0, so phi rises from mu = 0
        # and the first evaluation is optimal: the bound is lambda_max(K)
        spec, z = PINNED_POINTS["H2"]
        pt = ChernPoint.from_spec(spec, np.asarray(z, dtype=complex))
        tensor, free = dual_tensor(pt, "rbc0")
        k = functionals._quadratic_forms(tensor)
        eigs, vecs = np.linalg.eigh(k)
        top = vecs[0, :, -1]
        assert top @ functionals._minor_form(2) @ top > 0.1
        searches.clear()
        bound, _ = dual_bound(tensor, "sup", free)
        assert len(searches) == 1 and np.array_equal(searches[0], k)
        assert 0.0 < bound[0] - eigs[0, -1] <= 5 * np.finfo(float).eps * np.abs(eigs).max()

    @pytest.mark.parametrize("functional", ["hsc", "rbc0", "rbc1", "rbc2"])
    def test_tied_bidisk_top(self, searches, functional):
        # the bidisk's sup sits where two branches of phi cross: the search
        # stops where J on the tied top eigenspace has eigenvalues of both signs
        spec, z = PINNED_POINTS["P2"]
        pt = ChernPoint.from_spec(spec, np.asarray(z, dtype=complex))
        tensor, free = dual_tensor(pt, functional)
        searches.clear()
        bound, _ = dual_bound(tensor, "sup", free)
        assert len(searches) <= 3
        eigs, vecs = np.linalg.eigh(searches[-1])
        assert eigs[0, -1] - eigs[0, -2] <= functionals._TIE
        j_top = vecs[0, :, -2:].T @ functionals._minor_form(2) @ vecs[0, :, -2:]
        low, high = np.linalg.eigvalsh(j_top)
        assert low < 0.0 < high
        assert abs(bound[0] + 1.0) <= 1e-14

    @pytest.mark.parametrize("curvatures", [(-2.0, -1.0), (-3.0, -0.5), (-1.0, -0.1)])
    def test_unequal_bidisk_sup_at_a_kink(self, searches, curvatures):
        # the product of two disks of curvatures c1 != c2: HSC = (c1 |z1|^4 +
        # c2 |z2|^4) / |z|^4, whose sup c1 c2 / (c1 + c2) sits on a kink of phi
        # off the bracket's midpoint, where only the tangents' crossing is quick
        c1, c2 = curvatures
        r = np.zeros((1, 2, 2, 2, 2), dtype=complex)
        r[0, 0, 0, 0, 0], r[0, 1, 1, 1, 1] = c1, c2
        for free in (True, False):
            searches.clear()
            bound, _ = dual_bound(r, "sup", free)
            assert len(searches) <= 8, (curvatures, free, len(searches))
            assert abs(bound[0] - c1 * c2 / (c1 + c2)) <= 1e-14, (curvatures, free, bound[0])

    @pytest.mark.parametrize("kind", ["sup", "inf"])
    def test_mixed_stack_rows_match_one_point_calls(self, searches, kind):
        # F1 points take several steps; the bidisk stops on a tied top, hopf(2)
        # at mu = 0 and the flat metric at once
        points = [region_point(fixture("F1"), 4, seed=5)] + [
            ChernPoint.from_spec(spec, np.asarray(z, dtype=complex))
            for spec, z in (PINNED_POINTS["P2"], PINNED_POINTS["H2"],
                            (builtin_metric("flat", 2), [0.2, -0.1]))
        ]
        tensor = np.concatenate([dual_tensor(pt, "rbc0")[0] for pt in points])
        searches.clear()
        bound, witnesses = dual_bound(tensor, kind, False)
        stacked = [len(stack) for stack in searches]
        counts = []
        for p in range(len(tensor)):
            searches.clear()
            one, pair = dual_bound(tensor[p:p + 1], kind, False)
            counts.append(len(searches))
            assert one[0] == bound[p] and np.array_equal(pair[0], witnesses[p]), p
        assert len(stacked) == max(counts) and sum(stacked) == sum(counts)
        assert max(counts) <= 8 and min(counts) == 1, counts
