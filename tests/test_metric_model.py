"""Tests for the expression DSL, FD jets, built-in metrics, and the loader."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.chern import ChernPoint
from curvlab.errors import ConfigError, NumericalError
from curvlab.metric_model import (
    Abs2,
    Add,
    Conj,
    Const,
    Div,
    JetScheme,
    MetricJet,
    MetricSpec,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    complex_jet2,
    eval_expr,
    example22,
    field_first,
    fixture,
    flat,
    hopf,
    is_holomorphic,
    load_metric,
    max_var_index,
    metric_jet,
    metric_value,
    parse_expr,
    poincare_polydisk,
    Region,
    substitute,
    to_text,
    validate_metric,
)
from curvlab.schwarz import HoloMap

# ---------------------------------------------------------------------------
# expression language


class TestParser:
    def test_simple_metric_entry(self):
        node = parse_expr("1 / (1 - abs2(z1))^2")
        z = np.array([0.5 + 0j])
        assert eval_expr(node, z) == pytest.approx(1.0 / 0.75**2)

    def test_precedence(self):
        node = parse_expr("1 + 2 * z1^2")
        assert eval_expr(node, np.array([3 + 0j])) == pytest.approx(19.0)

    def test_unary_minus_binds_inside_power(self):
        # grammar places '-' inside the power base: -z1^2 is (-z1)^2
        node = parse_expr("-z1^2")
        assert eval_expr(node, np.array([2 + 0j])) == pytest.approx(4.0)

    def test_imaginary_literal(self):
        node = parse_expr("2i * z1")
        assert eval_expr(node, np.array([1 + 0j])) == pytest.approx(2j)

    def test_conj_of_variable_folds(self):
        assert parse_expr("conj(z2)") == Conj(Var(1))

    def test_abs2(self):
        node = parse_expr("abs2(z1 + 1i)")
        assert eval_expr(node, np.array([1 + 0j])) == pytest.approx(2.0)

    def test_negative_exponent(self):
        node = parse_expr("z1^-2")
        assert eval_expr(node, np.array([2 + 0j])) == pytest.approx(0.25)

    def test_error_carries_location(self):
        with pytest.raises(ConfigError, match=r"line 1, col 5"):
            parse_expr("z1 +")

    def test_unknown_identifier(self):
        with pytest.raises(ConfigError, match="unknown identifier 'w'"):
            parse_expr("w + 1")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_expr("z1^1.5")

    def test_trailing_garbage(self):
        with pytest.raises(ConfigError, match="trailing"):
            parse_expr("z1 z2")


def _leaves():
    nonneg_float = st.floats(
        min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
    )
    return st.one_of(
        nonneg_float.map(lambda x: Const(complex(x))),
        nonneg_float.map(lambda x: Const(complex(0.0, x))),
        st.integers(0, 2).map(Var),
        st.integers(0, 2).map(lambda k: Conj(Var(k))),
    )


def _trees():
    def extend(children):
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(Pow, children, st.integers(-3, 5)),
            st.builds(Conj, children),
            st.builds(Abs2, children),
            st.builds(Neg, children),
        )

    return st.recursive(_leaves(), extend, max_leaves=25)


class TestPrinter:
    @given(_trees())
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, tree):
        text = to_text(tree)
        assert parse_expr(text) == tree, f"round trip failed for {text!r}"

    def test_minimal_parens(self):
        assert to_text(parse_expr("z1 + z2 * z1")) == "z1 + z2 * z1"
        assert to_text(parse_expr("(z1 + z2) * z1")) == "(z1 + z2) * z1"


# one wrapper per operand position of every node kind
_WRAPPERS = [
    lambda e: Add(e, Const(1)), lambda e: Add(Const(1), e),
    lambda e: Sub(e, Const(1)), lambda e: Sub(Const(1), e),
    lambda e: Mul(e, Const(2)), lambda e: Mul(Const(2), e),
    lambda e: Div(e, Const(2)), lambda e: Div(Const(2), e),
    lambda e: Pow(e, 3), Conj, Abs2, Neg,
]


class TestSubstitute:
    def test_conj_var_becomes_conj_of_replacement(self):
        tree = Add(Var(0), Conj(Var(0)))
        replaced = substitute(tree, [Mul(Const(2 + 0j), Var(1))])
        z = np.array([0.0, 1 + 2j])
        assert eval_expr(replaced, z) == pytest.approx((2 + 4j) + (2 - 4j))

    def test_holomorphic_detection(self):
        assert is_holomorphic(parse_expr("z1^2 + 3 * z2"))
        assert not is_holomorphic(parse_expr("z1 + conj(z2)"))
        assert not is_holomorphic(parse_expr("abs2(z1)"))

    @pytest.mark.parametrize("wrap", _WRAPPERS)
    def test_walks_reach_every_operand(self, wrap):
        tree = wrap(Var(2))
        assert max_var_index(tree) == 2
        assert substitute(tree, [Var(0), Var(1), Var(1)]) == wrap(Var(1))
        assert not is_holomorphic(wrap(Conj(Var(0))))


class TestHolomorphicDerivative:
    """Exact map derivatives: ``HoloMap.jet`` folds the components over holomorphic jets."""

    def test_known_derivatives(self):
        z = np.array([0.7 - 0.2j, 0.3 + 0.4j])
        jet = HoloMap.parse(["z1^3 * z2 + 5 * z1", "z1 / (1 - z2)", "(1 - z1)^-2"], 2).jet(z)
        z1, z2 = z
        u, w = 1 - z1, 1 - z2
        np.testing.assert_allclose(jet.value, [z1**3 * z2 + 5 * z1, z1 / w, u**-2], rtol=1e-14)
        np.testing.assert_allclose(
            jet.jacobian, [[3 * z1**2 * z2 + 5, z1**3], [1 / w, z1 / w**2], [2 / u**3, 0]],
            rtol=1e-14)
        np.testing.assert_allclose(
            jet.hessian,
            [[[6 * z1 * z2, 3 * z1**2], [3 * z1**2, 0]],
             [[0, w**-2], [w**-2, 2 * z1 / w**3]],
             [[6 / u**4, 0], [0, 0]]],
            rtol=1e-14)

    def test_matches_finite_differences(self):
        holo_map = HoloMap.parse(["z1^2 * z2 - z2^3 / (2 + z1)"], 2)
        z0 = np.array([0.35 + 0.1j, -0.2 + 0.3j])
        jet = holo_map.jet(z0)
        # the stencil of the value gives the Jacobian, that of the Jacobian the Hessian
        for field, exact in ((lambda w: holo_map.first(w)[0], jet.jacobian),
                             (lambda w: holo_map.first(w)[1], jet.hessian)):
            d, dbar = field_first(field, z0)
            assert np.abs(np.moveaxis(d, 0, -1) - exact).max() < 1e-10
            assert np.abs(dbar).max() < 1e-10

    def test_conjugation_rejected(self):
        for text in ("conj(z1)", "abs2(z1) + z1"):
            with pytest.raises(ConfigError, match="map component 1 is not holomorphic"):
                HoloMap.parse([text], 1)

    def test_constant_tree_collapses(self):
        # z1 does not enter: its Jacobian column and every Hessian entry are exact zeros
        jet = HoloMap.parse(["3 * z2 + 1"], 2).jet(np.array([0.3 - 0.2j, -0.4 + 0.1j]))
        assert jet.jacobian[0, 0].tobytes() == np.zeros((), complex).tobytes()
        assert jet.jacobian[0, 1] == 3
        assert jet.hessian.tobytes() == np.zeros((1, 2, 2), complex).tobytes()


# ---------------------------------------------------------------------------
# finite-difference jets


class TestJets:
    def test_polynomial_field_exact(self):
        # f = z1^2 conj(z1) + 3 z1: d = 2|z|^2 + 3, dbar = z^2, dd = 2z
        def f(z):
            return z[..., 0] ** 2 * np.conj(z[..., 0]) + 3.0 * z[..., 0]

        z0 = np.array([0.4 + 0.3j])
        jet = complex_jet2(f, z0)
        w = z0[0]
        # second derivatives are roundoff-limited near eps / h^2 ~ 1e-10
        assert abs(jet.d[0] - (2 * abs(w) ** 2 + 3)) < 1e-10
        assert abs(jet.dbar[0] - w**2) < 1e-10
        assert abs(jet.dd[0, 0] - 2 * w) < 5e-8

    def test_cross_derivatives(self):
        # f = z1 z2 conj(z2): dd[1, 2] = d_1 dbar_2 f = z2... indices 0-based below
        def f(z):
            return z[..., 0] * z[..., 1] * np.conj(z[..., 1])

        z0 = np.array([0.2 - 0.1j, 0.3 + 0.5j])
        jet = complex_jet2(f, z0)
        assert abs(jet.dd[0, 1] - z0[1]) < 5e-8
        assert abs(jet.dd[1, 0]) < 5e-8
        assert abs(jet.d[0] - z0[1] * np.conj(z0[1])) < 1e-10

    def test_field_first_matches_full_jet(self):
        def f(z):
            return np.stack([z[..., 0] ** 3, np.conj(z[..., 0]) * z[..., 0]], -1)

        z0 = np.array([0.7 + 0.2j])
        jet = complex_jet2(f, z0)
        d, dbar = field_first(f, z0)
        assert np.allclose(d, jet.d, atol=1e-10)
        assert np.allclose(dbar, jet.dbar, atol=1e-10)

    def test_determinism(self):
        def f(z):
            return 1.0 / (1.0 - z[..., 0] * np.conj(z[..., 0]))

        z0 = np.array([0.3 + 0.4j])
        first = complex_jet2(f, z0)
        second = complex_jet2(f, z0)
        assert np.array_equal(first.dd, second.dd)
        assert np.array_equal(first.d, second.d)

    def test_order_controls_error(self):
        def f(z):
            return np.exp(z[..., 0] * np.conj(z[..., 0]))

        z0 = np.array([0.5 + 0.1j])
        r2 = abs(z0[0]) ** 2
        exact = (1 + r2) * np.exp(r2)

        def error(h, order):
            scheme = JetScheme(h=h, order=order, richardson=0)
            jet = complex_jet2(f, z0, scheme)
            return abs(jet.dd[0, 0] - exact)

        ratio2 = error(2e-2, 2) / error(1e-2, 2)
        ratio4 = error(4e-2, 4) / error(2e-2, 4)
        assert 2.5 < ratio2 < 6.0, f"order-2 halving ratio {ratio2:.2f}"
        assert 10.0 < ratio4 < 26.0, f"order-4 halving ratio {ratio4:.2f}"

    @pytest.mark.parametrize("batch", [(5,), (2, 3)])
    @pytest.mark.parametrize("vector", [False, True])
    def test_stacked_centres_equal_per_centre_calls(self, batch, vector):
        def f(z):
            scalar = z[..., 0] ** 2 * np.conj(z[..., 1]) + 1.0 / (2.0 - z[..., 0] * np.conj(z[..., 0]))
            return np.stack([scalar, z[..., 1] ** 3], -1) if vector else scalar

        rng = np.random.default_rng(3)
        centres = 0.5 * (rng.normal(size=batch + (2,)) + 1j * rng.normal(size=batch + (2,)))
        tail = (2,) if vector else ()
        for scheme in (JetScheme(), JetScheme(order=2, richardson=0, h=1e-2)):
            jet = complex_jet2(f, centres, scheme)
            d, dbar = field_first(f, centres, scheme)
            assert jet.value.shape == batch + tail
            assert jet.d.shape == d.shape == dbar.shape == batch + (2,) + tail
            assert jet.dd.shape == batch + (2, 2) + tail
            for idx in np.ndindex(batch):
                single = complex_jet2(f, centres[idx], scheme)
                for part in ("value", "d", "dbar", "dd"):
                    assert np.array_equal(getattr(jet, part)[idx], getattr(single, part)), part
                d_single, dbar_single = field_first(f, centres[idx], scheme)
                assert np.array_equal(d[idx], d_single)
                assert np.array_equal(dbar[idx], dbar_single)

    def test_footprint_outside_region_names_the_centre(self):
        region = Region("ball", 1.0)
        centres = np.array([[0.5], [0.9995]], dtype=complex)
        for jet in (complex_jet2, field_first):
            with pytest.raises(ConfigError, match=r"stencil around \[0.9995\+0.j\].*lower --h"):
                jet(lambda z: z[..., 0], centres, region=region)
        assert abs(complex_jet2(lambda z: z[..., 0], centres[:1], region=region).d[0, 0] - 1) < 1e-10

    def test_scheme_validation(self):
        with pytest.raises(ConfigError):
            JetScheme(order=3)
        with pytest.raises(ConfigError):
            JetScheme(h=-1e-3)
        with pytest.raises(ConfigError):
            JetScheme(richardson=2)


def _truncation_field(z):
    z1, z2 = z[..., 0], z[..., 1]
    return np.exp(z1 * np.conj(z2)) + z1**2 * np.conj(z1) / (1.5 - z2 * np.conj(z2))


def _mp_truncation_field(x1, x2, y1, y2):
    z1, z2 = mpmath.mpc(x1, y1), mpmath.mpc(x2, y2)
    return mpmath.exp(z1 * mpmath.conj(z2)) + z1**2 * mpmath.conj(z1) / (1.5 - z2 * mpmath.conj(z2))


TRUNCATION_CENTRE = np.array([0.3 + 0.2j, -0.25 + 0.1j])


def _mp_wirtinger_jet() -> np.ndarray:
    """``d``, ``dbar`` and ``dd`` of the field at the centre, at 50 digits, flattened."""
    with mpmath.workdps(50):
        x = [mpmath.mpf(float(v)) for v in
             (*TRUNCATION_CENTRE.real, *TRUNCATION_CENTRE.imag)]

        def partial(*axes):
            return mpmath.diff(_mp_truncation_field, x, tuple(axes.count(a) for a in range(4)))

        n = 2
        first = [partial(r) for r in range(2 * n)]
        d = [(first[k] - 1j * first[n + k]) / 2 for k in range(n)]
        dbar = [(first[k] + 1j * first[n + k]) / 2 for k in range(n)]
        dd = [(partial(i, j) + partial(n + i, n + j)
               + 1j * (partial(i, n + j) - partial(n + i, j))) / 4
              for i in range(n) for j in range(n)]
        return np.array([complex(v) for v in d + dbar + dd])


@pytest.fixture(scope="module")
def mp_jet():
    return _mp_wirtinger_jet()


def _stencil_error(scheme: JetScheme, reference: np.ndarray) -> np.ndarray:
    jet = complex_jet2(_truncation_field, TRUNCATION_CENTRE, scheme)
    return np.abs(np.concatenate([jet.d, jet.dbar, jet.dd.ravel()]) - reference)


class TestStencilTruncation:
    """The stencils against mpmath's derivatives at 50 digits, a reference free of truncation."""

    @pytest.mark.parametrize("order, richardson, h, power", [
        (2, 0, 0.04, 2), (4, 0, 0.08, 4), (4, 1, 0.16, 6),
    ])
    def test_error_falls_at_the_stencil_order(self, mp_jet, order, richardson, h, power):
        # the steps are large enough that truncation dwarfs round-off
        errors = [np.linalg.norm(_stencil_error(JetScheme(h=step, order=order,
                                                          richardson=richardson), mp_jet))
                  for step in (h, h / 2, h / 4)]
        for coarse, fine in zip(errors, errors[1:]):
            assert abs(np.log2(coarse / fine) - power) <= 0.25, errors

    def test_default_scheme_is_at_round_off(self, mp_jet):
        # h^6 truncation is ~1e-18 at h = 1e-3; what is left is round-off,
        # eps / h on first derivatives and eps / h^2 on second ones
        scheme = JetScheme()
        error = _stencil_error(scheme, mp_jet)
        eps = np.finfo(float).eps
        assert error[:4].max() <= 100 * eps / scheme.h
        assert error[4:].max() <= 100 * eps / scheme.h**2


# ---------------------------------------------------------------------------
# built-in metrics and the loader


def stencil_jet(spec: MetricSpec, z: np.ndarray) -> MetricJet:
    """The stencil oracle: the metric's values differentiated by the default stencils."""
    jet = complex_jet2(lambda w: metric_value(spec, w), z, JetScheme(), region=spec.region)
    return MetricJet(np.asarray(z, dtype=complex), jet.value, jet.d, jet.dd)


class TestBuiltins:
    def test_flat_jets_vanish(self):
        spec = flat(2)
        jet = metric_jet(spec, np.array([0.3 + 0.2j, -0.5j]))
        assert np.allclose(jet.g, np.eye(2))
        assert np.max(np.abs(jet.d_g)) == 0.0
        assert np.max(np.abs(jet.dd_g)) == 0.0

    def test_fixture_one_origin_values(self):
        spec = fixture("F1")
        jet = metric_jet(spec, np.zeros(2, dtype=complex))
        assert np.allclose(jet.g, np.eye(2))
        assert jet.d_g[0, 1, 0] == pytest.approx(1.0)
        assert jet.d_g[1, 0, 0] == pytest.approx(-1.0)
        assert jet.dd_g[0, 0, 1, 1] == pytest.approx(0.5)
        assert jet.dd_g[0, 0, 0, 0] == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "factory,point",
        [
            (lambda: poincare_polydisk(2), np.array([0.3 + 0.1j, -0.2j])),
            (lambda: hopf(2), np.array([0.6 + 0.2j, -0.4 + 0.3j])),
            (lambda: fixture("F1"), np.array([0.05 + 0.02j, -0.03j])),
        ],
    )
    def test_exact_jets_match_finite_differences(self, factory, point):
        spec = factory()
        exact = metric_jet(spec, point)
        fd = stencil_jet(spec, point)
        assert np.max(np.abs(exact.g - fd.g)) < 1e-12
        assert np.max(np.abs(exact.d_g - fd.d_g)) < 1e-8, (
            f"first derivatives disagree by {np.max(np.abs(exact.d_g - fd.d_g)):.3e}"
        )
        assert np.max(np.abs(exact.dd_g - fd.dd_g)) < 1e-6, (
            f"mixed seconds disagree by {np.max(np.abs(exact.dd_g - fd.dd_g)):.3e}"
        )

    def test_jet_hermitian_consistency(self):
        # dd_g[i, j, k, l] = conj(dd_g[j, i, l, k]) for a Hermitian entry field
        spec = hopf(2)
        jet = metric_jet(spec, np.array([0.5 + 0.1j, 0.2 - 0.3j]))
        swapped = np.conj(np.transpose(jet.dd_g, (1, 0, 3, 2)))
        assert np.max(np.abs(jet.dd_g - swapped)) < 1e-12

    def test_example22_requires_antisymmetry(self):
        bad = np.zeros((2, 2, 2), dtype=complex)
        bad[0, 0, 0] = 1.0
        with pytest.raises(ConfigError, match="antisymmetric"):
            example22(2, bad, 0.0)

    def test_validation_passes_on_fixtures(self):
        for name in ("F1", "F2", "F3", "F4"):
            validate_metric(fixture(name))

    def test_point_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="coordinates"):
            metric_jet(flat(2), np.zeros(3, dtype=complex))


BATCH_METRICS = {
    "flat(2)": lambda: flat(2),
    "P1": lambda: poincare_polydisk(1),
    "P2": lambda: poincare_polydisk(2),
    "H1": lambda: hopf(1),
    "H2": lambda: hopf(2),
    "H3": lambda: hopf(3),
    "F1": lambda: fixture("F1"),
}


def assert_entries_close(got: np.ndarray, ref: np.ndarray, tol: float, label: str) -> None:
    assert got.shape == ref.shape, label
    gap = float(np.max(np.abs(got - ref)))
    assert gap <= tol * max(1.0, float(np.max(np.abs(ref)))), f"{label}: off by {gap:.3e}"


class TestBatchedJets:
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("name", sorted(BATCH_METRICS))
    def test_stacked_exact_jets_equal_pointwise_loop(self, name, lead):
        spec = BATCH_METRICS[name]()
        rng = np.random.default_rng(len(lead) + 7)
        count = int(np.prod(lead, dtype=int))
        points = spec.region.sample_points(spec.n, rng, count).reshape(lead + (spec.n,))
        jet = metric_jet(spec, points)
        for part, rank in (("g", 2), ("d_g", 3), ("dd_g", 4)):
            assert getattr(jet, part).shape == lead + (spec.n,) * rank
        values = metric_value(spec, points)
        for idx in np.ndindex(*lead):
            single = metric_jet(spec, points[idx])
            for part in ("g", "d_g", "dd_g"):
                assert_entries_close(getattr(jet, part)[idx], getattr(single, part), 1e-15,
                                     f"{name} {part} at {idx}")
            assert_entries_close(values[idx], metric_value(spec, points[idx]), 1e-15,
                                 f"{name} value at {idx}")

    def test_stencil_and_expression_routes_stack_per_point(self):
        spec = poincare_polydisk(2)
        points = np.array([[0.3 + 0.1j, -0.2j], [0.1, 0.4 - 0.1j]])
        jet = stencil_jet(spec, points)
        for k, z in enumerate(points):
            single = stencil_jet(spec, z)
            for part in ("g", "d_g", "dd_g"):
                assert np.array_equal(getattr(jet, part)[k], getattr(single, part)), part
        payload = {"n": 2, "entries": [["1 + abs2(z1)", "0"], ["0", "1 + abs2(z2)"]],
                   "region": {"type": "ball", "radius": 1.0}}
        loaded = load_metric(payload)
        stacked = metric_value(loaded, points[None])
        assert stacked.shape == (1, 2, 2, 2)
        for k, z in enumerate(points):
            assert np.array_equal(stacked[0, k], metric_value(loaded, z))

    @pytest.mark.parametrize("spec", [flat(2), load_metric(
        {"n": 2, "entries": [["1", "0"], ["0", "1"]], "region": {"type": "ball", "radius": 1.0}}
    )])
    def test_points_need_n_coordinates(self, spec):
        wrong = np.zeros((3, 4), dtype=complex)
        for evaluate in (metric_value, metric_jet):
            with pytest.raises(ConfigError, match="need 2 coordinates"):
                evaluate(spec, wrong)
            with pytest.raises(ConfigError, match="need 2 coordinates"):
                evaluate(spec, np.zeros(3, dtype=complex))

    def test_region_contains_over_leading_axes(self):
        points = np.array([[[0.5, 0.5], [0.9, 0.5j]], [[0.0, 0.0], [0.2, 1.2]]], dtype=complex)
        assert Region("ball", 1.0).contains(points).tolist() == [[True, False], [True, False]]
        assert Region("polydisk", 1.0).contains(points).tolist() == [[True, True], [True, False]]
        assert Region("punctured", 1.0).contains(points).tolist() == [[True, True], [False, True]]
        assert bool(Region("ball", 1.0).contains(points[0, 0]))

    def test_region_contains_over_scales(self):
        # the Euclidean norm squares the entries, which underflow below about
        # 1e-162; a point off the origin must still read as off the puncture
        rng = np.random.default_rng(3)
        unit = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
        unit[::4, 1] = 0.0
        punctured = Region("punctured", math.inf)
        for exponent in range(-300, 301, 10):
            points = unit * 10.0**exponent
            exact = np.array([math.hypot(*np.abs(z)) for z in points])
            assert punctured.contains(points).tolist() == (exact > 0.0).tolist(), exponent
            if exponent < 150:  # an overflowed norm reads inf, outside every ball
                for radius in (1.0, math.inf):
                    inside = Region("ball", radius).contains(points)
                    assert inside.tolist() == (exact < radius).tolist(), (exponent, radius)
        assert not punctured.contains(np.zeros(2))
        assert punctured.contains(np.array([0.0, 1e-320j]))
        for bad in ([math.nan, 0.0], [math.inf, math.nan]):
            assert not punctured.contains(np.array(bad))

    def test_non_finite_first_derivative_is_numerical_error(self):
        # On the line z1 = 0.7 the entry is 1 and its d_1 is z2 * 1e600, which
        # overflows unless z2 = 0; g and dd_g stay finite there.
        entry = parse_expr("1 + (z1 - 0.7) * (z2 * 1e300) * 1e300")
        spec = MetricSpec(
            name="bad-first", n=2, entries=((entry, Const(0j)), (Const(0j), Const(1 + 0j))),
            region=Region("ball", 1.0),
        )
        points = np.array([[0.7, 0.0], [0.7, 0.5], [0.7, 0.25j]], dtype=complex)
        assert np.array_equal(metric_value(spec, points), np.broadcast_to(np.eye(2), (3, 2, 2)))
        assert np.isfinite(metric_jet(spec, points[0]).d_g).all()
        with pytest.raises(NumericalError, match="not finite"):
            metric_jet(spec, points[1])
        with pytest.raises(NumericalError, match=r"not finite at \[0.7\+0.j 0.5\+0.j\]"):
            metric_jet(spec, points)
        with pytest.raises(NumericalError, match=r"not finite at \[0.7\+0.j +0. +\+0.25j\]"):
            metric_jet(spec, points[[0, 2, 1]][None])

    def test_singular_point_in_a_batch_is_numerical_error(self):
        # hopf divides by |z|^2; the warning is suppressed and the jet rejected
        points = np.array([[0.5, 0.1j], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NumericalError, match="not finite"):
            metric_jet(hopf(2), points)

    def test_metric_that_is_not_positive_definite_is_numerical_error(self):
        # g = 1 - 4|z1|^2 is -2.24 at 0.9: no jet, so no Chern tensors of it
        spec = load_metric({"n": 1, "entries": [["1 - abs2(z1)*4"]],
                            "region": {"type": "ball", "radius": 1.0}})
        with pytest.raises(NumericalError, match=r"not positive definite at \[0.9\+0.j\]"):
            ChernPoint.from_jet(metric_jet(spec, np.array([0.9])))
        # the first point of a stack, in C order, is named
        stack = np.array([0.1, 0.3, 0.95, 0.9]).reshape(2, 2, 1)
        with pytest.raises(NumericalError, match=r"not positive definite at \[0.95\+0.j\]$"):
            ChernPoint.from_jet(metric_jet(spec, stack))
        jet = metric_jet(spec, stack[0])
        assert np.array_equal(jet.cholesky, np.sqrt(jet.g))
        assert ChernPoint.from_jet(jet).cholesky is jet.cholesky


class TestLoader:
    def test_round_trip(self, tmp_path):
        payload = {
            "n": 1,
            "entries": [["1 / (1 - abs2(z1))^2"]],
            "region": {"type": "polydisk", "radius": 1.0},
        }
        path = tmp_path / "disk.json"
        path.write_text(json.dumps(payload))
        spec = load_metric(path)
        assert spec.n == 1
        value = metric_value(spec, np.array([0.5 + 0j]))
        assert value[0, 0] == pytest.approx(1.0 / 0.75**2)

    def test_non_hermitian_rejected(self):
        payload = {
            "n": 2,
            "entries": [["1", "z1"], ["z1", "1"]],
            "region": {"type": "ball", "radius": 1.0},
        }
        with pytest.raises(ConfigError, match="Hermitian"):
            load_metric(payload)

    def test_variable_out_of_range(self):
        payload = {
            "n": 1,
            "entries": [["1 + abs2(z2)"]],
            "region": {"type": "ball", "radius": 1.0},
        }
        with pytest.raises(ConfigError, match="z2"):
            load_metric(payload)

    def test_unknown_region(self):
        payload = {
            "n": 1,
            "entries": [["1"]],
            "region": {"type": "torus", "radius": 1.0},
        }
        with pytest.raises(ConfigError, match="region"):
            load_metric(payload)

    def test_non_positive_metric_rejected(self):
        payload = {
            "n": 1,
            "entries": [["-1"]],
            "region": {"type": "ball", "radius": 1.0},
        }
        with pytest.raises(ConfigError, match="positive definite"):
            load_metric(payload)

    def test_indefinite_base_point_rejected(self):
        # Hermitian and finite everywhere; at the base point, the origin, g has
        # eigenvalues 3 and -1
        spec = MetricSpec(name="saddle", n=2, entries=((Const(1 + 0j), Add(Const(2 + 0j), Var(0))),
                                                       (Add(Const(2 + 0j), Conj(Var(0))),
                                                        Const(1 + 0j))),
                          region=Region("ball", 0.5))
        with pytest.raises(ConfigError, match=r"^metric 'saddle' is not positive definite at its "
                                              r"base point \[0\.\+0\.j 0\.\+0\.j\]$"):
            validate_metric(spec)
