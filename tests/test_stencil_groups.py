"""The grouped stencil kernel against the per-derivative loop it replaced, byte for byte.

The oracle is the footprint layout and the real jet the library summed its
stencils with before it summed them per term group, kept here verbatim as
``per_derivative_footprint`` and ``per_derivative_real_jet``: one Python
loop per derivative, per level and per term.  ``complex_jet2`` and
``field_first`` are compared with the same functions run on the oracle, by
``tobytes()`` so that signed zeros count, for orders 2 and 4, Richardson
levels 0 and 1, n = 1..3, centres of shape ``(n,)``, ``(P, n)`` and
``(P, Q, n)`` and fields of shape ``()``, ``(n,)`` and ``(n, n, n)``.
"""

import itertools
from functools import cache
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.errors import ConfigError
from curvlab.metric_model import JetScheme, Region, complex_jet2, field_first, jets
from curvlab.metric_model.jets import _FIRST_WEIGHTS, _SECOND_WEIGHTS

# ---------------------------------------------------------------------------
# the oracle: one weighted sum per derivative


@cache
def per_derivative_footprint(m: int, order: int, levels: int, second: bool):
    rows = {(0,) * m: 0}

    def lay_out(axes, moved, stencil):
        terms = []
        for unit in (2, 1)[:levels]:
            level = []
            for offsets, weight in stencil:
                units = [0] * m
                for axis, offset in zip(moved, offsets):
                    units[axis] = offset * unit
                level.append((rows.setdefault(tuple(units), len(rows)), weight))
            terms.append(tuple(level))
        return axes, tuple(terms)

    first = [((o,), w) for o, w in _FIRST_WEIGHTS[order]]
    derivatives = [lay_out((r,), (r,), first) for r in range(m)]
    if second:
        diagonal = [((o,), w) for o, w in _SECOND_WEIGHTS[order]]
        cross = [((a, b), wa * wb) for (a,), wa in first for (b,), wb in first]
        for r in range(m):
            derivatives.append(lay_out((r, r), (r,), diagonal))
            derivatives += [lay_out((r, s), (r, s), cross) for s in range(r + 1, m)]
    return np.array(list(rows), dtype=float), tuple(derivatives)


def per_derivative_real_jet(f: Callable, z: np.ndarray, scheme: JetScheme, second: bool, region):
    z = np.asarray(z, dtype=complex)
    batch, n = z.shape[:-1], z.shape[-1]
    m = 2 * n
    units, derivatives = per_derivative_footprint(m, scheme.order, 1 + scheme.richardson, second)
    scale = np.maximum(1.0, np.abs(z))
    steps = scheme.h * np.concatenate([scale, scale], -1)
    delta = 0.5 * units * steps[..., None, :]
    points = z[..., None, :] + (delta[..., :n] + 1j * delta[..., n:])
    if region is not None:
        inside = region.contains(points).all(-1)
        if not inside.all():
            raise ConfigError(
                f"the stencil around {z[~inside][0]} leaves the {region.kind} region; "
                f"lower --h (now {scheme.h})"
            )

    values = np.moveaxis(np.asarray(f(points), dtype=complex), len(batch), 0)
    tail = values.ndim - 1 - len(batch)
    steps = np.moveaxis(steps, -1, 0).reshape((m,) + batch + (1,) * tail)

    def derivative(axes: tuple[int, ...], terms: tuple) -> np.ndarray:
        found = []
        for unit, level_terms in zip((2, 1), terms):
            acc = None
            for row, weight in level_terms:
                term = weight * values[row]
                acc = term if acc is None else acc + term
            spacing = None
            for axis in axes:
                step = steps[axis] * (0.5 * unit)
                spacing = step if spacing is None else spacing * step
            found.append(acc / spacing)
        if len(found) == 1:
            return found[0]
        factor = float(2**scheme.order)
        return (factor * found[1] - found[0]) / (factor - 1.0)

    value = values[0, ...].copy()
    d1 = np.stack([derivative(axes, terms) for axes, terms in derivatives[:m]])
    if not second:
        return value, d1, None
    d2 = np.empty((m,) + d1.shape, dtype=complex)
    for (r, s), terms in derivatives[m:]:
        d2[r, s] = d2[s, r] = derivative((r, s), terms)
    return value, d1, d2


# ---------------------------------------------------------------------------
# fields and comparison


def make_field(n: int, shape: tuple, seed: int) -> Callable:
    """A smooth non-holomorphic field of shape ``shape``; some entries are signed zeros."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape + (n,)) + 1j * rng.normal(size=shape + (n,))
    b = rng.normal(size=shape + (n,))
    zero = rng.random(shape) < 0.25

    def f(w: np.ndarray) -> np.ndarray:
        w = w.reshape(w.shape[:-1] + (1,) * len(shape) + (n,))
        linear = np.sum(a * w, -1)
        out = np.exp(0.5 * linear) * np.sum(b * w * np.conj(w), -1) + linear**2
        return np.where(zero, -0.0 * linear.real, out)

    return f


def assert_same_bytes(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def assert_matches_oracle(f: Callable, z: np.ndarray, scheme: JetScheme, region=None):
    for second in (False, True):
        got = jets._real_jet(f, z, scheme, second, region)
        want = per_derivative_real_jet(f, z, scheme, second, region)
        assert (got[2] is None) == (want[2] is None)
        assert_same_bytes([a for a in got if a is not None], [a for a in want if a is not None])

    def both():
        return complex_jet2(f, z, scheme, region=region), field_first(f, z, scheme, region=region)

    new_jet, new_first = both()
    with mock.patch.object(jets, "_real_jet", per_derivative_real_jet):
        old_jet, old_first = both()
    assert_same_bytes(vars(new_jet).values(), vars(old_jet).values())
    assert_same_bytes(new_first, old_first)


BATCHES = {"scalar": (), "(P,)": (3,), "(P, Q)": (2, 3)}
FIELDS = {"()": lambda n: (), "(n,)": lambda n: (n,), "(n, n, n)": lambda n: (n, n, n)}


@pytest.mark.parametrize("order, richardson", itertools.product((2, 4), (0, 1)))
@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("field", FIELDS)
def test_every_scheme_shape_and_dimension(order, richardson, n, batch, field):
    rng = np.random.default_rng(n * 100 + order * 10 + richardson)
    shape = BATCHES[batch] + (n,)
    z = 0.8 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    scheme = JetScheme(h=1e-3, order=order, richardson=richardson)
    assert_matches_oracle(make_field(n, FIELDS[field](n), int(rng.integers(2**32))), z, scheme)


COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.25]),
                        st.floats(-0.9, 0.9, allow_subnormal=False))


@st.composite
def stencil_cases(draw):
    n = draw(st.integers(1, 3))
    batch = draw(st.sampled_from([(), (draw(st.integers(1, 4)),),
                                  (draw(st.integers(1, 3)), draw(st.integers(1, 3)))]))
    count = 2 * n * int(np.prod(batch, dtype=int))
    parts = np.array(draw(st.lists(COORDINATES, min_size=count, max_size=count)))
    z = (parts[::2] + 1j * parts[1::2]).reshape(batch + (n,))
    scheme = JetScheme(h=draw(st.sampled_from([1e-4, 1e-3, 0.05])),
                       order=draw(st.sampled_from([2, 4])), richardson=draw(st.integers(0, 1)))
    field = make_field(n, FIELDS[draw(st.sampled_from(list(FIELDS)))](n),
                       draw(st.integers(0, 2**32 - 1)))
    return field, z, scheme


@settings(max_examples=120, deadline=None, derandomize=True)
@given(stencil_cases())
def test_random_centres_and_fields(case):
    assert_matches_oracle(*case)


def test_region_check_and_its_message():
    f = make_field(2, (2,), 7)
    z = np.array([[0.1, 0.2j], [0.999, 0.0]])
    scheme = JetScheme(h=1e-2)
    assert_matches_oracle(f, z[:1], scheme, Region("ball", 1.0))
    with pytest.raises(ConfigError) as got:
        complex_jet2(f, z, scheme, region=Region("ball", 1.0))
    with pytest.raises(ConfigError) as want:
        per_derivative_real_jet(f, z, scheme, True, Region("ball", 1.0))
    assert str(got.value) == str(want.value)
