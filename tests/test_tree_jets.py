"""Exact Wirtinger jets folded over expression trees, against independent oracles.

The oracles are the closed-form jets the built-in families used to carry
(kept here only as references), sympy's Wirtinger derivatives
``(d/dx -+ i d/dy) / 2`` of random trees, and a few points where a careless
power or product rule would give NaN or a complex-valued modulus.
"""

import numpy as np
import pytest
import sympy
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from curvlab.errors import ConfigError
from curvlab.metric_model import (
    Abs2,
    Add,
    Conj,
    Const,
    Div,
    MetricSpec,
    Mul,
    Neg,
    Pow,
    Region,
    Sub,
    Var,
    compile_trees,
    example22,
    fixture,
    flat,
    hopf,
    load_metric,
    metric_jet,
    metric_value,
    parse_expr,
    poincare_polydisk,
    to_text,
)

# ---------------------------------------------------------------------------
# closed-form jets of the built-in families: (g, d_g, dd_g) at points (..., n)


def _diagonal(values: np.ndarray, rank: int) -> np.ndarray:
    """``out[..., k, k, ..., k] = values[..., k]`` over ``rank`` trailing axes."""
    n = values.shape[-1]
    out = np.zeros(values.shape + (n,) * (rank - 1), dtype=complex)
    out[(Ellipsis,) + (np.arange(n),) * rank] = values
    return out


def flat_oracle(z):
    n = z.shape[-1]
    g = np.broadcast_to(np.eye(n, dtype=complex), z.shape[:-1] + (n, n))
    return g, np.zeros(z.shape[:-1] + (n,) * 3), np.zeros(z.shape[:-1] + (n,) * 4)


def poincare_oracle(z):
    s = 1.0 - np.abs(z) ** 2
    return (
        _diagonal(s**-2.0, 2),
        _diagonal(2.0 * s**-3.0 * np.conj(z), 3),
        _diagonal(2.0 * s**-3.0 + 6.0 * np.abs(z) ** 2 * s**-4.0, 4),
    )


def hopf_oracle(z):
    eye = np.eye(z.shape[-1], dtype=complex)
    r2 = np.sum(np.abs(z) ** 2, axis=-1)[..., None, None]
    first = (-np.conj(z) / r2[..., 0] ** 2)[..., None, None] * eye
    coeff = -(eye / r2**2) + 2.0 * np.conj(z)[..., :, None] * z[..., None, :] / r2**3
    return eye / r2, first, coeff[..., None, None] * eye


def example22_oracle(a, eps):
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    b = np.einsum("ikp,jlp->ijkl", a, np.conj(a))
    mixed = 0.5 * b + eps * np.einsum("il,jk->ijkl", eye, eye)

    def jets(z):
        zbar = np.conj(z)
        g = eye + np.einsum("ikl,...i->...kl", a, z)
        g = g + np.einsum("ilk,...i->...kl", np.conj(a), zbar)
        g = g + 0.5 * np.einsum("ijkl,...i,...j->...kl", b, z, zbar)
        g = g + eps * (zbar[..., :, None] * z[..., None, :])
        d = a + 0.5 * np.einsum("ijkl,...j->...ikl", b, zbar)
        d = d + eps * zbar[..., None, :, None] * eye[:, None, :]
        return g, d, np.broadcast_to(mixed, z.shape[:-1] + mixed.shape)

    return jets


def _antisymmetric(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
    return 0.5 * (a - np.swapaxes(a, 0, 1))


_A3 = _antisymmetric(5, 3)
_F1_A = np.zeros((2, 2, 2), dtype=complex)
_F1_A[0, 1, 0], _F1_A[1, 0, 0] = 1.0, -1.0

ORACLES = {
    "flat(2)": (lambda: flat(2), flat_oracle),
    "P1": (lambda: poincare_polydisk(1), poincare_oracle),
    "P2": (lambda: poincare_polydisk(2), poincare_oracle),
    "H1": (lambda: hopf(1), hopf_oracle),
    "H2": (lambda: hopf(2), hopf_oracle),
    "H3": (lambda: hopf(3), hopf_oracle),
    "F1": (lambda: fixture("F1"), example22_oracle(_F1_A, 0.1)),
    "E3": (lambda: example22(3, _A3, 0.2), example22_oracle(_A3, 0.2)),
}


def assert_relative(got: np.ndarray, ref: np.ndarray, tol: float, label: str) -> None:
    assert got.shape == ref.shape, label
    scale = max(float(np.max(np.abs(ref), initial=0.0)), 1e-300)
    gap = float(np.max(np.abs(got - ref), initial=0.0))
    assert gap <= tol * scale, f"{label}: off by {gap:.3e} at scale {scale:.3e}"


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_tree_jets_match_closed_forms(name, lead):
    make, oracle = ORACLES[name]
    spec = make()
    rng = np.random.default_rng(len(lead) + 11)
    count = int(np.prod(lead, dtype=int))
    points = spec.region.sample_points(spec.n, rng, count).reshape(lead + (spec.n,))
    jet = metric_jet(spec, points)
    for part, got, ref in zip(("g", "d_g", "dd_g"), (jet.g, jet.d_g, jet.dd_g), oracle(points)):
        assert_relative(got, np.asarray(ref), 1e-13, f"{name} {part}")
    assert_relative(metric_value(spec, points), np.asarray(oracle(points)[0]), 1e-13,
                    f"{name} value")


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_file_twin_gives_the_same_jets(name):
    spec = ORACLES[name][0]()
    payload = {
        "n": spec.n,
        "entries": [[to_text(entry) for entry in row] for row in spec.entries],
        "region": {"type": spec.region.kind, "radius": spec.region.radius},
    }
    twin = load_metric(payload)
    points = spec.region.sample_points(spec.n, np.random.default_rng(3), 6).reshape(2, 3, spec.n)
    for part in ("g", "d_g", "dd_g"):
        assert_relative(getattr(metric_jet(twin, points), part),
                        getattr(metric_jet(spec, points), part), 1e-15,
                        f"{name} {part}")


# ---------------------------------------------------------------------------
# random trees against sympy

_X = sympy.symbols("x1 x2", real=True)
_Y = sympy.symbols("y1 y2", real=True)
_Z = [x + sympy.I * y for x, y in zip(_X, _Y)]
_POINTS = np.array([[0.3 + 0.4j, -0.5 + 0.2j], [0.6 - 0.1j, 0.2 + 0.7j]])

_leaves = st.one_of(
    st.sampled_from([Const(0.5 + 0j), Const(-1.25 + 0j), Const(2 + 0j), Const(0.3 + 0.7j)]),
    st.builds(Var, st.integers(0, 1)),
    st.builds(lambda k: Conj(Var(k)), st.integers(0, 1)),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(Add, kids, kids),
        st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids),
        st.builds(Div, kids, kids),
        st.builds(Pow, kids, st.integers(-3, 3)),
        st.builds(Neg, kids),
        st.builds(Conj, kids),
        st.builds(Abs2, kids),
    ),
    max_leaves=6,
)
# one tree with every node kind
_EVERY_KIND = Add(
    Div(Abs2(Sub(Var(0), Const(0.3 + 0.7j))), Pow(Mul(Conj(Var(1)), Var(0)), -2)),
    Neg(Conj(Pow(Add(Var(1), Const(2 + 0j)), 3))),
)


def _sympy(node):
    if isinstance(node, Const):
        return sympy.Float(node.value.real, 30) + sympy.I * sympy.Float(node.value.imag, 30)
    if isinstance(node, Var):
        return _Z[node.index]
    if isinstance(node, Conj):
        return sympy.conjugate(_sympy(node.arg))
    if isinstance(node, Abs2):
        inner = _sympy(node.arg)
        return inner * sympy.conjugate(inner)
    if isinstance(node, Neg):
        return -_sympy(node.arg)
    if isinstance(node, Pow):
        return _sympy(node.base) ** node.exponent
    left, right = _sympy(node.left), _sympy(node.right)
    return {Add: left + right, Sub: left - right, Mul: left * right, Div: left / right}[type(node)]


def _wirtinger(f, sign, i):
    return (sympy.diff(f, _X[i]) + sign * sympy.I * sympy.diff(f, _Y[i])) / 2


def _sympy_jets(tree):
    """Value, d, dbar and d dbar of the tree at _POINTS, to 30 digits."""
    f = _sympy(tree)
    d = [_wirtinger(f, -1, i) for i in range(2)]
    dbar = [_wirtinger(f, 1, j) for j in range(2)]
    dd = [[_wirtinger(dbar[j], -1, i) for j in range(2)] for i in range(2)]
    exprs = [f] + d + dbar + [e for row in dd for e in row]
    out = []
    for z in _POINTS:
        subs = {**dict(zip(_X, z.real)), **dict(zip(_Y, z.imag))}
        out.append([complex(sympy.N(e.subs(subs), 30)) for e in exprs])
    out = np.array(out)
    return out[:, 0], out[:, 1:3], out[:, 3:5], out[:, 5:].reshape(-1, 2, 2)


@settings(max_examples=40, deadline=None)
@example(_EVERY_KIND)
@given(_trees)
def test_random_trees_match_sympy_wirtinger_derivatives(tree):
    # the tree set's own jets, which need no metric; the conjugate tree
    # carries dbar: d_i conj(f) = conj(dbar_i f)
    try:
        jets = compile_trees([tree, Conj(tree)]).jets(_POINTS)
        if not all(np.isfinite(part).all() for part in jets):
            reject()  # a point on a singularity of the tree
        value, d, dbar, dd = _sympy_jets(tree)
    except (ConfigError, ZeroDivisionError, OverflowError):
        reject()  # a constant or a point on a singularity of the tree
    if not all(np.isfinite(part).all() and np.abs(part).max() < 1e6
               for part in (value, d, dbar, dd)):
        reject()  # too close to a singularity for a fixed tolerance
    v, first, mixed = jets
    for got, ref, label in (
        (v[:, 0], value, "value"),
        (first[:, :, 0], d, "d"),
        (np.conj(first[:, :, 1]), dbar, "dbar"),
        (mixed[..., 0], dd, "d dbar"),
        (np.conj(mixed[..., 1]).swapaxes(-1, -2), dd, "d dbar of conj"),
    ):
        gap = float(np.max(np.abs(got - ref)))
        assert gap <= 1e-12 * max(1.0, float(np.max(np.abs(ref)))), (
            f"{label} of {to_text(tree)}: off by {gap:.3e}"
        )


# ---------------------------------------------------------------------------
# edge cases


def scalar_spec(text: str) -> MetricSpec:
    return MetricSpec(name=text, n=1, entries=((parse_expr(text),),), region=Region("ball", 1.0))


@pytest.mark.parametrize(
    "text, value, d, dd",
    [
        ("z1^1", 0.0, 1.0, 0.0),
        ("z1^0", 1.0, 0.0, 0.0),
        ("abs2(z1)^2", 0.0, 0.0, 0.0),
        ("abs2(z1)", 0.0, 0.0, 1.0),
        ("conj(z1)^2 * z1", 0.0, 0.0, 0.0),
    ],
)
def test_powers_at_the_origin_are_finite_and_exact(text, value, d, dd):
    # the tree set's own jets: a field vanishing at the origin is not a metric there
    got = compile_trees([parse_expr(text)]).jets(np.zeros((3, 1), dtype=complex))
    assert np.array_equal(got[0], np.full((3, 1), value + 0j))
    assert np.array_equal(got[1], np.full((3, 1, 1), d + 0j))
    assert np.array_equal(got[2], np.full((3, 1, 1, 1), dd + 0j))


def test_abs2_values_are_exactly_real():
    spec = scalar_spec("abs2(z1 * (0.3 + 0.7i) + conj(z1)^2 - 1.1i)")
    rng = np.random.default_rng(0)
    points = (rng.normal(size=(1000, 1)) + 1j * rng.normal(size=(1000, 1))) * 0.5
    assert np.all(metric_value(spec, points).imag == 0.0)
    assert np.all(metric_jet(spec, points).g.imag == 0.0)
    hopf_values = metric_value(hopf(2), np.stack([points[:, 0], points[::-1, 0]], -1))
    assert np.all(hopf_values.imag == 0.0)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 + 1/(1-1)", "constant '1 / \\(1 - 1\\)' cannot be evaluated"),
        ("0^-1 + abs2(z1)", "constant '0\\^-1' cannot be evaluated"),
        # a zero constant under a variable divides arrays: inf, caught on load
        ("1 + z1 / (2 - 2)^3", "not finite"),
        # singular only at the base point, the origin of the ball
        ("1 / abs2(z1)", "not finite at \\[0.\\+0.j\\]"),
    ],
)
def test_singular_entries_are_config_errors_on_load(text, message):
    payload = {"n": 1, "entries": [[text]], "region": {"type": "ball", "radius": 1.0}}
    with pytest.raises(ConfigError, match=message):
        load_metric(payload)
