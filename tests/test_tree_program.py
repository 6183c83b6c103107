"""The compiled tree program against the recursive fold it replaced, byte for byte.

The oracle is the recursive fold and the four-array Wirtinger jet
the library folded trees with before it compiled them, kept here as
``recursive_eval`` and ``FourArrayJet``; its parts are complex from the
coordinates on, as the packed jet's are.  The entry program's jets of order
2 and of order 1 (``TreeProgram.jets``, bytes and dtype), ``metric_jet``
where the trees form a metric, metric values, one-tree programs and the map
folds (``first`` on first-order jets, ``jet`` on holomorphically seeded
second-order ones, seeded alike on both sides) are compared on point
stacks ``()``, ``(1,)``, ``(7,)``, ``(2, 3)`` and ``(33,)``: on random
multi-entry trees with shared subtrees, on every built-in metric and on the
file metrics of the benchmark reference.
"""

import functools
import json
import statistics
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from curvlab.chern import ChernPoint
from curvlab.errors import ConfigError, NumericalError
from curvlab.functionals import TauParam, comparison_deviation, hsc_certificates, rbc_certificates
from curvlab.metric_model import (
    Abs2,
    Add,
    Conj,
    Const,
    Div,
    Expr,
    MetricSpec,
    Mul,
    Neg,
    Pow,
    Region,
    Sub,
    Var,
    builtin_metric,
    compile_trees,
    example22,
    fixture,
    flat,
    hopf,
    load_metric,
    metric_jet,
    metric_value,
    poincare_polydisk,
    substitute,
    to_text,
)
from curvlab.metric_model.expr import TreeProgram, _operands
from curvlab.schwarz import HoloMap, laplacian_identity_report

STACKS = [(), (1,), (7,), (2, 3), (33,)]
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"

# ---------------------------------------------------------------------------
# the oracle: the recursive fold over four-array jets


class FourArrayJet:
    """Wirtinger jet of order 1 or 2 of a scalar field at ``P`` points in ``m`` variables.

    ``v`` has shape ``(P,)``, ``d[p, i] = d_i f`` and ``dbar[p, i] = dbar_i f``
    have ``(P, m)``, and ``dd[p, i, j] = d_i dbar_j f`` has ``(P, m, m)``, or
    is None at order 1.  Python scalars act as constants.  Sums, products,
    quotients, integer powers and conjugation close on these parts, so no
    pure second derivatives are carried; each value is computed as the plain
    fold does.
    """

    __slots__ = ("v", "d", "dbar", "dd")

    def __init__(self, v, d, dbar, dd) -> None:
        self.v, self.d, self.dbar, self.dd = v, d, dbar, dd

    @classmethod
    def coordinates(cls, z: np.ndarray, holomorphic: bool = False,
                    order: int = 2) -> "FourArrayJet":
        """Jets of the coordinates at points ``z`` of shape ``(P, m)``; ``[..., k]`` is ``z_k``.

        ``dbar z_k`` is ``e_k`` if ``holomorphic``, else 0, as ``_Jet.coordinates`` seeds it.
        """
        zero = np.zeros(z.shape + z.shape[-1:], dtype=complex)
        dd = np.zeros(zero.shape + z.shape[-1:], dtype=complex) if order == 2 else None
        unit = zero + np.eye(z.shape[-1])
        return cls(z, unit, unit if holomorphic else zero, dd)

    def __getitem__(self, key: tuple) -> "FourArrayJet":
        s = (slice(None),)
        return FourArrayJet(self.v[key], self.d[key + s], self.dbar[key + s],
                            _second(lambda dd: dd[key + s + s], self.dd))

    def _each(self, f) -> "FourArrayJet":
        return FourArrayJet(f(self.v), f(self.d), f(self.dbar), _second(f, self.dd))

    def __add__(self, other) -> "FourArrayJet":
        if not isinstance(other, FourArrayJet):
            return FourArrayJet(self.v + other, self.d, self.dbar, self.dd)
        return FourArrayJet(self.v + other.v, self.d + other.d, self.dbar + other.dbar,
                            _second(lambda dd: dd + other.dd, self.dd))

    __radd__ = __add__

    def __neg__(self) -> "FourArrayJet":
        return self._each(np.negative)

    def __sub__(self, other) -> "FourArrayJet":
        return self + -other

    def __rsub__(self, other) -> "FourArrayJet":
        return -self + other

    def __mul__(self, other) -> "FourArrayJet":
        if not isinstance(other, FourArrayJet):
            return self._each(lambda part: part * other)
        a, b = self.v[:, None], other.v[:, None]
        return FourArrayJet(self.v * other.v, self.d * b + a * other.d, self.dbar * b + a * other.dbar,
                    _second(lambda dd: dd * b[:, None] + a[:, None] * other.dd
                            + _outer(self.d, other.dbar) + _outer(other.d, self.dbar), self.dd))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FourArrayJet":
        if not isinstance(other, FourArrayJet):
            return self._each(lambda part: part / other)
        # q = a / b: d q = d a / b - a d b / b^2 and d dbar q = d dbar a / b
        # - (d a dbar b + d b dbar a + a d dbar b) / b^2 + 2 a d b dbar b / b^3
        a, b = np.asarray(self.v)[..., None], other.v[:, None]
        b2 = b * b
        return FourArrayJet(self.v / other.v, self.d / b - a * other.d / b2,
                    self.dbar / b - a * other.dbar / b2,
                    _second(lambda dd: dd / b[:, None] - (_outer(self.d, other.dbar)
                                                          + _outer(other.d, self.dbar)
                                                          + a[..., None] * other.dd) / b2[:, None]
                            + 2 * a[..., None] * _outer(other.d, other.dbar) / (b2 * b)[:, None],
                            self.dd))

    def __rtruediv__(self, other) -> "FourArrayJet":
        zero = np.zeros_like(self.d)
        return FourArrayJet(other, zero, zero, _second(np.zeros_like, self.dd)) / self

    def __pow__(self, k: int):
        if k in (0, 1):  # never form v^(k-2), which is infinite at v = 0
            return self if k else 1 + 0j
        p1 = (k * self.v ** (k - 1))[:, None]
        p2 = (k * (k - 1) * self.v ** (k - 2))[:, None, None]
        return FourArrayJet(self.v**k, p1 * self.d, p1 * self.dbar,
                    _second(lambda dd: p1[:, None] * dd + p2 * _outer(self.d, self.dbar), self.dd))

    def conjugate(self) -> "FourArrayJet":
        return FourArrayJet(self.v.conjugate(), self.dbar.conjugate(), self.d.conjugate(),
                    _second(lambda dd: dd.conjugate().swapaxes(-1, -2), self.dd))


def _second(f, dd):
    """``f(dd)``, the second-order part of an operation, or None on a first-order jet."""
    return None if dd is None else f(dd)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[:, :, None] * y[:, None, :]


def _abs2(w):
    """``w * conj(w)`` with an exactly real value ``re^2 + im^2``."""
    if not isinstance(w, FourArrayJet):
        return w.real * w.real + w.imag * w.imag
    out = w * w.conjugate()
    out.v = _abs2(w.v).astype(complex)
    return out


def recursive_eval(node: Expr, z):
    """Evaluate at points ``z`` of shape ``(..., n)``, one value per point.

    The tree is folded with Python operators over the leaves ``z[..., k]``,
    so for the coordinate jets of a stack of points the fold gives the
    entry's Wirtinger jet.  Constant subtrees stay Python numbers; a
    division by zero among them raises :class:`ConfigError`.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return z[..., node.index]
    if isinstance(node, Add):
        return recursive_eval(node.left, z) + recursive_eval(node.right, z)
    if isinstance(node, Sub):
        return recursive_eval(node.left, z) - recursive_eval(node.right, z)
    if isinstance(node, Mul):
        return recursive_eval(node.left, z) * recursive_eval(node.right, z)
    if isinstance(node, (Div, Pow)):
        try:
            if isinstance(node, Pow):
                return recursive_eval(node.base, z) ** node.exponent
            return recursive_eval(node.left, z) / recursive_eval(node.right, z)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"constant '{to_text(node)}' cannot be evaluated: {exc}") from exc
    if isinstance(node, Conj):
        return recursive_eval(node.arg, z).conjugate()
    if isinstance(node, Abs2):
        return _abs2(recursive_eval(node.arg, z))
    if isinstance(node, Neg):
        return -recursive_eval(node.arg, z)
    raise ConfigError(f"unknown expression node {node!r}")




def oracle_value(spec: MetricSpec, z: np.ndarray) -> np.ndarray:
    flat = z.reshape(-1, spec.n)
    zero = np.zeros(len(flat))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = [recursive_eval(entry, flat) + zero for row in spec.entries for entry in row]
    return np.stack(g, -1).astype(complex).reshape(z.shape[:-1] + (spec.n, spec.n))


def metric_parts(parts: tuple, z: np.ndarray, n: int) -> tuple:
    """Entry jet parts ``(P, ..., n*n)`` as ``g``, ``d_g``, ``dd_g`` on the batch axes of ``z``."""
    return tuple(part.reshape(z.shape[:-1] + (n,) * rank) for part, rank in zip(parts, (2, 3, 4)))


def oracle_fold(spec: MetricSpec, z: np.ndarray, order: int) -> tuple:
    """The recursive fold of each entry at ``z`` ``(..., n)``, and ``g``, ``d_g``, ``dd_g``.

    The fold is over the points in C order; the metric parts, unchecked,
    stop at ``d_g`` at order 1.
    """
    seed = FourArrayJet.coordinates(z.reshape(-1, spec.n), order=order)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        folds = [recursive_eval(entry, seed) for row in spec.entries for entry in row]
        zero = seed[..., 0] * 0.0
        jets = [fold + zero for fold in folds]
    parts = [np.stack([getattr(j, part) for j in jets], -1)
             for part in ("v", "d", "dd")[:order + 1]]
    return folds, metric_parts(parts, z, spec.n)


def program_fold(spec: MetricSpec, z: np.ndarray, order: int) -> tuple:
    """The entry program's run at ``z`` ``(..., n)``, and the :func:`tree_jet` packed from it.

    ``jets`` folds the program once; its one run is recorded on the way.
    """
    runs = []
    run = TreeProgram.run

    def recorded(program, leaves):
        runs.append(run(program, leaves))
        return runs[-1]

    with mock.patch.object(TreeProgram, "run", recorded):
        parts = tree_jet(spec, z, order)
    assert len(runs) == 1
    return runs[0], parts


def tree_jet(spec: MetricSpec, z: np.ndarray, order: int = 2) -> tuple:
    """``g``, ``d_g`` and ``dd_g`` as ``metric_jet`` reshapes the entry program's jets, unchecked."""
    return metric_parts(spec.program.jets(z.reshape(-1, spec.n), order=order), z, spec.n)


# ---------------------------------------------------------------------------
# comparisons


def assert_same(got, want, label: str) -> None:
    """Same type, dtype, shape and bytes."""
    assert type(got) is type(want), f"{label}: {type(got)} against {type(want)}"
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), label
    assert got.tobytes() == want.tobytes(), f"{label}: {got} against {want}"


def outcome(call) -> tuple:
    """``(value, None)``, or ``(None, (type, text))`` of the library error ``call`` raises."""
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return call(), None
    except (ConfigError, NumericalError) as exc:
        return None, (type(exc), str(exc))


def assert_same_outcome(call, oracle, label: str) -> None:
    (got, got_error), (want, want_error) = outcome(call), outcome(oracle)
    assert got_error == want_error, label
    if want_error is None:
        assert_same(got, want, label)


def check_metric(spec: MetricSpec, z: np.ndarray, is_metric: bool = False) -> None:
    """The entry program's jets of both orders against the oracle's, and ``metric_jet`` on them.

    Each order folds the program and the oracle once and compares them both
    ways: as the parts ``metric_jet`` reshapes, and entry by entry as packed
    jets (:func:`check_packed_jets`).  ``metric_jet`` may refuse a set of
    trees that is not a metric at ``z``; when it returns, its arrays are the
    program's jets.  Order 1 gives the bytes of order 2's ``g`` and ``d_g``,
    and checks no more than order 2.
    """
    flat = z.reshape(-1, spec.n)
    jets = {}
    for order in (2, 1):
        (program, error), (oracle, want_error) = outcome(
            lambda: program_fold(spec, z, order)), outcome(lambda: oracle_fold(spec, z, order))
        assert error == want_error
        (run, jet), (folds, want) = program or (None, None), oracle or (None, None)
        jets[order] = jet
        for part, ref, label in zip(jet or (), want or (), ("g", "d_g", "dd_g")):
            label = f"order {order} {label} of {spec.name} at {z.shape}"
            assert_same(one_nan(part), one_nan(ref), label)
            assert part.flags.c_contiguous
        check_packed_jets(spec, flat, order, run, folds)
    for part, ref, label in zip(jets[1] or (), jets[2] or (), ("g", "d_g")):
        assert_same(part, ref, f"order 1 against order 2 {label} of {spec.name} at {z.shape}")
    checked, checked_error = outcome(lambda: metric_jet(spec, z))
    assert checked_error is None or not is_metric, checked_error
    first, first_error = outcome(lambda: metric_jet(spec, z, 1))
    assert first_error is None or checked_error is not None, first_error
    if checked_error is None:
        for part, ref in zip((checked.g, checked.d_g, checked.dd_g), jets[2]):
            assert_same(part, ref, f"metric jet of {spec.name} at {z.shape}")
        for part, ref in zip((first.g, first.d_g), jets[2]):
            assert_same(part, ref, f"first-order metric jet of {spec.name} at {z.shape}")
        assert first.dd_g is None
    assert_same_outcome(lambda: metric_value(spec, z), lambda: oracle_value(spec, z), "g")
    for k, entry in enumerate(e for row in spec.entries for e in row):
        for leaves in (flat, flat[0]):
            assert_same_outcome(lambda: compile_trees((entry,)).fold(leaves)[0],
                                lambda: recursive_eval(entry, leaves), f"entry {k}")


def oracle_map_jet(holo_map: HoloMap, z: np.ndarray, orders: int) -> list:
    """Value, Jacobian and Hessian of the recursive fold, as the map's fold seeds it.

    Two parts come from first-order jets under the plain seed, three from
    holomorphically seeded second-order ones.  The first part, in turn, that
    is not finite raises, as the map's fold does.
    """
    flat = z.reshape(-1, holo_map.n_source)
    seed = FourArrayJet.coordinates(flat, holomorphic=orders == 3, order=orders - 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zero = seed[..., 0] * 0.0
        jets = [recursive_eval(component, seed) + zero for component in holo_map.components]
    folds = []
    for what, part in list(zip(("value", "Jacobian", "Hessian"), ("v", "d", "dd")))[:orders]:
        values = np.stack([getattr(jet, part) for jet in jets], 1)  # (P, n_target, ...)
        finite = np.isfinite(values).all(tuple(range(1, values.ndim)))
        if not finite.all():
            raise NumericalError(f"map {what} is not finite at {flat[~finite][0]}")
        folds.append(values.reshape(z.shape[:-1] + values.shape[1:]))
    return folds


def one_nan(a: np.ndarray) -> np.ndarray:
    """``a`` with every NaN real or imaginary part replaced by the one quiet NaN.

    NaN signs are not compared: they follow which operand a processor
    propagates, and no report holds a NaN (a jet with one raises).
    """
    out = a.copy()
    out.real[np.isnan(a.real)] = np.nan
    if out.dtype.kind == "c":
        out.imag[np.isnan(a.imag)] = np.nan
    return out


def check_packed_jets(spec: MetricSpec, flat: np.ndarray, order: int, got, want) -> None:
    """Each entry's packed jet ``got`` of ``order`` holds the parts of its recursive fold ``want``.

    Both are None where the folds raised the same error.
    """
    for k, (jet, ref) in enumerate(zip(got or [], want or [])):
        if not isinstance(ref, FourArrayJet):
            assert_same(jet, ref, f"constant entry {k}")
            continue
        parts = [part.reshape(len(flat), -1)
                 for part in (ref.v, ref.d, ref.dbar, ref.dd) if part is not None]
        assert_same(one_nan(jet.a), one_nan(np.concatenate(parts, axis=1)),
                    f"order {order} entry {k}")
        assert jet.m == spec.n


def check_map(holo_map: HoloMap, z: np.ndarray) -> None:
    """``first`` (order 1) and ``jet`` (order 2) against the oracle; ``first`` gives the bytes
    of ``jet``'s value and Jacobian and fails where ``jet`` fails on them, with its error."""
    calls = {2: lambda: list(holo_map.first(z)),
             3: lambda: (lambda jet: [jet.value, jet.jacobian, jet.hessian])(holo_map.jet(z))}
    folds = {}
    for orders, call in calls.items():
        (got, error), (want, want_error) = folds[orders] = outcome(call), outcome(
            lambda: oracle_map_jet(holo_map, z, orders))
        assert error == want_error, orders
        for part, ref, what in zip(got or [], want or [], ("value", "Jacobian", "Hessian")):
            assert_same(part, ref, what)
            assert part.flags.c_contiguous
    ((first, first_error), _), ((jet, jet_error), _) = folds[2], folds[3]
    if first_error is not None:
        assert jet_error == first_error
    elif jet_error is None:
        for part, ref, what in zip(first, jet, ("value", "Jacobian")):
            assert_same(part, ref, f"first {what} against the jet's")


# ---------------------------------------------------------------------------
# points: random, with exact zeros of both signs among the coordinates


def points(rng: np.random.Generator, stack: tuple, n: int, scale: float = 0.45) -> np.ndarray:
    z = scale * (rng.normal(size=stack + (n,)) + 1j * rng.normal(size=stack + (n,)))
    signed_zero = rng.choice([0.0, -0.0], size=z.shape)
    re = np.where(rng.random(z.shape) < 0.2, signed_zero, z.real)
    im = np.where(rng.random(z.shape) < 0.2, signed_zero[::-1] if z.ndim == 1 else signed_zero,
                  z.imag)
    return re + 1j * im


# ---------------------------------------------------------------------------
# random trees with shared subtrees


CONSTANTS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j, -1 + 0j,
             0.5 + 0j, 2 - 1j, 0.25j, 0, 2, -1, 3, 0.5, -0.0, 0.3, -2.5]


def atoms(n: int):
    other = min(1, n - 1)
    return st.one_of(
        st.integers(0, n - 1).map(Var),
        st.integers(0, n - 1).map(lambda k: Conj(Var(k))),
        st.sampled_from(CONSTANTS).map(Const),
        st.just(Neg(Var(0))),  # -z1
        st.just(Sub(Const(1 + 0j), Var(0))),  # 1 - z1
        st.just(Sub(Var(0), Conj(Var(other)))),  # z1 - conj(z2)
    )


@functools.cache
def trees(n: int):
    """Random trees over ``n`` variables; one strategy per ``n``, since hypothesis validates
    each recursive strategy it is handed anew."""

    def extend(inner):
        return st.one_of(
            st.tuples(st.sampled_from([Add, Sub, Mul, Div]), inner, inner).map(
                lambda t: t[0](t[1], t[2])),
            st.tuples(inner, st.integers(-3, 3)).map(lambda t: Pow(*t)),
            st.tuples(st.sampled_from([Conj, Abs2, Neg]), inner).map(lambda t: t[0](t[1])),
        )

    return st.recursive(atoms(n), extend, max_leaves=8)


def copy_tree(tree: Expr, n: int) -> Expr:
    """A structurally equal tree of new nodes."""
    return substitute(tree, [Var(k) for k in range(n)])


@st.composite
def shared_entries(draw):
    """An ``n x n`` matrix of entries built from a small pool of shared subtrees."""
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(trees(n), min_size=1, max_size=4))

    def entry(_):
        pick = st.sampled_from(pool)
        return draw(st.one_of(
            pick,  # the same node objects as another entry
            pick.map(lambda t: copy_tree(t, n)),  # equal nodes, new objects
            st.tuples(st.sampled_from([Add, Sub, Mul, Div]), pick, pick).map(
                lambda t: t[0](t[1], t[2])),
            st.tuples(pick, st.integers(-2, 2)).map(lambda t: Pow(*t)),
            trees(n),
            st.sampled_from(CONSTANTS).map(Const),  # a constant-only entry
        ))

    return n, tuple(tuple(entry((k, l)) for l in range(n)) for k in range(n))


# no shrinking: a failing example of this search is reported as drawn, since
# shrinking five stacks per candidate takes minutes
@settings(max_examples=150, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate],
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(shared_entries(), st.integers(0, 2**32 - 1))
def test_random_tree_sets_fold_to_the_recursive_bytes(matrix, seed):
    n, entries = matrix
    spec = MetricSpec(name="random", n=n, entries=entries, region=Region("ball", 1.0))
    rng = np.random.default_rng(seed)
    for stack in STACKS:
        check_metric(spec, points(rng, stack, n))


@st.composite
def holomorphic_maps(draw):
    n = draw(st.integers(1, 2))
    holomorphic = trees(n).filter(lambda t: "conj" not in to_text(t) and "abs2" not in to_text(t))
    pool = draw(st.lists(holomorphic, min_size=1, max_size=3))
    components = draw(st.lists(st.one_of(st.sampled_from(pool), holomorphic),
                               min_size=1, max_size=2))
    return HoloMap(tuple(components), n)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(holomorphic_maps(), st.integers(0, 2**32 - 1))
def test_random_map_folds_match_the_recursive_bytes(holo_map, seed):
    rng = np.random.default_rng(seed)
    for stack in STACKS:
        check_map(holo_map, points(rng, stack, holo_map.n_source))


# ---------------------------------------------------------------------------
# every built-in metric and the benchmark's file metrics


def reference_files() -> dict:
    files = {}
    for path in sorted(REFERENCE.glob("*.json")):
        for name, payload in json.loads(path.read_text()).get("files", {}).items():
            files[f"{path.stem}:{name}"] = payload
    return files


# Constant-free real-valued subtrees divided or raised to a power outside
# {-1, 0, 1, 2}: their jets differ from the plain fold by up to an ulp.
MOVED = {
    "m1": {"n": 1, "entries": [["abs2(z1)^-3"]], "region": {"type": "punctured"}},
    "m2": {"n": 2, "entries": [["(abs2(z1) + abs2(z2))^-3", "0"],
                               ["0", "(abs2(z1) + abs2(z2))^3 / abs2(z1)"]],
           "region": {"type": "punctured"}},
}

BUILTINS = {
    **{f"flat({n})": (lambda n=n: flat(n)) for n in (1, 2, 3)},
    **{f"poincare_polydisk({n})": (lambda n=n: poincare_polydisk(n)) for n in (1, 2, 3)},
    **{f"hopf({n})": (lambda n=n: hopf(n)) for n in (1, 2, 3)},
    **{name: (lambda name=name: fixture(name)) for name in ("F1", "F2", "F3", "F4")},
    "example22(3)": lambda: example22(3, _antisymmetric(3), 0.05),
    **{f"file {name}": (lambda payload=payload: load_metric(payload))
       for name, payload in reference_files().items()},
    **{f"moved {name}": (lambda payload=payload: load_metric(payload))
       for name, payload in MOVED.items()},
}


def _antisymmetric(n: int) -> np.ndarray:
    rng = np.random.default_rng(5)
    a = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
    return 0.2 * (a - np.swapaxes(a, 0, 1))


def test_the_reference_files_are_found():
    assert len(reference_files()) >= 4


@pytest.mark.parametrize("name", list(BUILTINS))
def test_builtin_metrics_fold_to_the_recursive_bytes(name):
    spec = BUILTINS[name]()
    rng = np.random.default_rng(11)
    for stack in STACKS:
        count = int(np.prod(stack, dtype=int))
        z = spec.region.sample_points(spec.n, rng, count).reshape(stack + (spec.n,))
        check_metric(spec, z, is_metric=True)
    check_metric(spec, spec.region.base_point(spec.n), is_metric=True)


def jet_and_plain_values(name: str) -> tuple:
    spec = BUILTINS[name]()
    z = spec.region.sample_points(spec.n, np.random.default_rng(7), 200)
    return metric_jet(spec, z).g, metric_value(spec, z)


# example22(3) is left out: numpy multiplies a packed jet by a non-real
# constant in a contiguous loop that rounds otherwise than its strided loop
# over a column of points, here and at the parent alike.
@pytest.mark.parametrize("name", [name for name in BUILTINS
                                  if name != "example22(3)" and not name.startswith("moved ")])
def test_metric_jet_values_are_the_plain_fold_bytes(name):
    g, value = jet_and_plain_values(name)
    assert_same(g, value, name)


@pytest.mark.parametrize("name", [f"moved {name}" for name in MOVED])
def test_moved_trees_jet_values_are_the_plain_fold_to_a_few_ulp(name):
    """Complex division and power round otherwise than the plain fold's float ones."""
    g, value = jet_and_plain_values(name)
    assert np.all(np.abs(g - value) <= 4 * np.finfo(float).eps * np.abs(value))


@pytest.mark.parametrize("tree", [
    Mul(Neg(Var(0)), Const(-1)),  # real derivatives times a negative real: -1 * -1
    Div(Neg(Var(0)), Const(-2.5)),
    Mul(Const(-0.0), Sub(Const(1 + 0j), Var(1))),
    Div(Abs2(Var(0)), Const(3)),  # a real value over a real constant
    Mul(Neg(Abs2(Var(1))), Const(-1)),
    Add(Neg(Var(0)), Const(-2)),
    Conj(Sub(Var(0), Conj(Var(1)))),
    Pow(Neg(Abs2(Var(0))), -2),
    Mul(Neg(Var(0)), Conj(Neg(Var(1)))),
])
def test_real_valued_parts_keep_the_zero_signs_of_the_complex_fold(tree):
    spec = MetricSpec(name=to_text(tree), n=2, entries=((tree, Const(0j)), (Const(0j), tree)),
                      region=Region("ball", 1.0))
    z = np.array([[0.3 - 0.2j, -0.1 + 0.4j], [0j, complex(-0.0, -0.0)], [-0.5, 0.25j]])
    check_metric(spec, z)


def median_us(run, repeats: int = 100) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


@pytest.mark.parametrize("name, args", [("example22", ()), ("poincare_polydisk", (2,)),
                                        ("hopf", (2,)), ("hopf", (3,))])
def test_metric_jet_is_the_reshaped_program_jets(name, args):
    """``metric_jet`` adds checks, not numbers; prints both times, slots and tree nodes."""
    spec = builtin_metric(name, *args)
    rng = np.random.default_rng(0)
    stacks = {"1 point": spec.region.sample_points(spec.n, rng, 1)[0],
              "33 points": spec.region.sample_points(spec.n, rng, 33)}
    times = []
    for label, z in stacks.items():
        jet = metric_jet(spec, z)
        for part, ref, what in zip((jet.g, jet.d_g, jet.dd_g), tree_jet(spec, z),
                                   ("g", "d_g", "dd_g")):
            assert_same(part, ref, f"{what} of {spec.name} at {label}")
        flat = z.reshape(-1, spec.n)
        times.append(f"{label} {median_us(lambda: metric_jet(spec, z)):.0f} / "
                     f"{median_us(lambda: spec.program.jets(flat)):.0f} us")
    nodes = sum(node_count(entry) for row in spec.entries for entry in row)
    print(f"\n{spec.name}: metric_jet / TreeProgram.jets {', '.join(times)}; "
          f"program of {len(spec.program)} slots for {nodes} tree nodes")


@pytest.mark.parametrize("name", ["F1", "poincare_polydisk(2)", "hopf(2)"])
def test_first_order_jets_are_the_second_order_bytes(name):
    """Prints the times of ``TreeProgram.jets`` at order 1 and order 2; asserts only bytes."""
    spec = BUILTINS[name]()
    rng = np.random.default_rng(1)
    times = []
    for count in (1, 33, 193):
        flat = spec.region.sample_points(spec.n, rng, count)
        for part, ref, what in zip(spec.program.jets(flat, order=1), spec.program.jets(flat),
                                   ("value", "d")):
            assert_same(part, ref, f"{what} of {name} at {count} points")
        times.append(f"{count} points {median_us(lambda: spec.program.jets(flat, order=1)):.0f}"
                     f" / {median_us(lambda: spec.program.jets(flat)):.0f} us")
    print(f"\n{name}: TreeProgram.jets order 1 / order 2 {', '.join(times)}")


@pytest.mark.parametrize("components", [("z1^2", "z2^2"), ("(z1+z2)/3", "z1*z2-z2^2")])
def test_map_first_is_the_jet_bytes(components):
    """Prints the times of ``HoloMap.first`` (order 1) and ``HoloMap.jet`` at 193 points."""
    holo_map = HoloMap.parse(components, 2)
    z = points(np.random.default_rng(4), (193,), 2)
    jet = holo_map.jet(z)
    for part, ref, what in zip(holo_map.first(z), (jet.value, jet.jacobian),
                               ("value", "Jacobian")):
        assert_same(part, ref, what)
    print(f"\n{';'.join(components)} at 193 points: HoloMap.first "
          f"{median_us(lambda: holo_map.first(z)):.0f} us, HoloMap.jet "
          f"{median_us(lambda: holo_map.jet(z)):.0f} us")


def test_flat_derivatives_are_complex_positive_zeros():
    jet = metric_jet(flat(2), np.zeros((3, 2), dtype=complex))
    for part in (jet.d_g, jet.dd_g):
        assert part.dtype == complex
        assert part.tobytes() == np.zeros(part.shape, dtype=complex).tobytes()


@pytest.mark.parametrize("components", [("z1^2", "z2 * z1 - z2^3"), ("1 / (z1 - 2)", "z1 + 0 * z2"),
                                        ("z1 * z2 / (3 + z2^2)^2",)])
def test_map_folds_match_the_recursive_bytes(components):
    holo_map = HoloMap.parse(components, 2)
    rng = np.random.default_rng(3)
    for stack in STACKS + [(0,), (2, 0)]:
        check_map(holo_map, points(rng, stack, 2))


# ---------------------------------------------------------------------------
# the program itself


def node_count(tree: Expr) -> int:
    return 1 + sum(map(node_count, _operands(tree)))


def test_equal_subtrees_share_one_slot():
    shared = Add(Abs2(Var(0)), Abs2(Var(1)))
    trees = [Div(Const(1 + 0j), shared), Mul(copy_tree(shared, 2), Var(0)), Conj(Abs2(Var(1)))]
    program = compile_trees(trees)
    assert sum(map(node_count, trees)) == 17
    # z1, z2, 1, |z1|^2, |z2|^2, the sum, the quotient, the product, the conjugate
    assert len(program) == 9


def test_hopf_entries_share_the_norm():
    spec = hopf(3)
    nodes = sum(node_count(e) for row in spec.entries for e in row)
    assert len(spec.program) < nodes / 3


@pytest.mark.parametrize("values", [(0j, complex(-0.0, 0.0)), (0j, 0), (0.0, -0.0), (1, 1.0, 1 + 0j)])
def test_constants_share_a_slot_only_with_equal_bits(values):
    program = compile_trees([Const(v) for v in values])
    got = program.run([])
    assert len(program) == len(values)
    for value, want in zip(got, values):
        assert_same(value, want, repr(want))


def test_constant_subtrees_fold_to_python_numbers():
    program = compile_trees([Add(Mul(Const(2 + 0j), Const(3j)), Var(0)),
                             Pow(Conj(Const(1 + 1j)), 2)])
    assert len(program) == 4  # z1, 6i, the sum and (1 - i)^2
    value, constant = program.run([np.array([1 + 0j])])
    assert_same(constant, (1 - 1j) ** 2, "constant")
    assert_same(value, np.array([1 + 6j]), "value")


@pytest.mark.parametrize("tree", [
    Add(Var(0), Div(Const(1 + 0j), Sub(Const(1 + 0j), Const(1 + 0j)))),
    Mul(Pow(Const(0j), -1), Abs2(Var(0))),
    Div(Const(1), Const(0)),
])
def test_constants_that_cannot_be_evaluated_are_config_errors(tree):
    with pytest.raises(ConfigError) as got:
        compile_trees([tree])
    with pytest.raises(ConfigError) as want:
        recursive_eval(tree, np.zeros(1, dtype=complex))
    assert str(got.value) == str(want.value)
    assert "cannot be evaluated" in str(got.value)


def test_a_run_leaves_its_leaves_and_earlier_results_alone():
    spec = fixture("F1")
    z = np.array([[0.1 + 0.05j, -0.02 + 0.1j], [0.0, -0.0j]])
    kept = z.copy()
    first = metric_jet(spec, z)
    second = metric_jet(spec, z)
    assert np.array_equal(z, kept)
    for a, b in zip((first.g, first.d_g, first.dd_g), (second.g, second.d_g, second.dd_g)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["F1", "hopf(3)", "flat(2)"])
@pytest.mark.parametrize("stack", [(0,), (2, 0)], ids=str)
def test_empty_point_stacks_give_empty_results(name, stack):
    spec = {"F1": fixture("F1"), "hopf(3)": hopf(3), "flat(2)": flat(2)}[name]
    n = spec.n
    z = np.zeros(stack + (n,), dtype=complex)
    jet = metric_jet(spec, z)
    assert (jet.g.shape, jet.d_g.shape, jet.dd_g.shape) == (
        metric_value(spec, z).shape, stack + (n,) * 3, stack + (n,) * 4)
    point = ChernPoint.from_spec(spec, z)
    assert point.curvature.shape == stack + (n,) * 4
    assert comparison_deviation(point).shape == stack
    # the certificate records have zero-length fields: the stack's axes, then the witness's
    for cert, witness in ((hsc_certificates(point, "sup"), (n,)),
                          (rbc_certificates(point, TauParam(1.0, "target"), "inf"), (n, n))):
        assert {name: field.shape for name, field in vars(cert).items()} == {
            name: stack + (witness if name == "witness" else ()) for name in vars(cert)}
    identity = HoloMap.parse([f"z{k + 1}" for k in range(n)], n)
    assert laplacian_identity_report(spec, spec, identity, z).relative_residual.shape == stack
