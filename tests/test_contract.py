"""The Chern contractions and frame changes give einsum's bits with the point axes innermost.

``tensor_core._contract`` moves the point axes of a stack last before it
calls einsum; every subscript string it serves in ``chern.py`` and
``tensor_core.py`` must give the same bits as ``np.einsum`` on the original
layout, signed zeros included.
"""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import chern, tensor_core
from curvlab.chern import _contract


def served_subscripts() -> list[str]:
    """Every subscript string that ``chern.py`` and ``tensor_core.py`` pass to ``_contract``."""
    trees = [ast.parse(inspect.getsource(module)) for module in (chern, tensor_core)]
    return sorted({
        node.args[0].value for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_contract"
    })


SUBSCRIPTS = served_subscripts()
BATCHES = [(), (1,), (7,), (2, 3), (625,)]

# entries from a small drawn pool, so signed zeros, underflowing products and
# exact cancellations all occur; the bound keeps sums of products finite
ENTRIES = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0]),
              st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)),
    min_size=1, max_size=8,
)


def operands(subscripts, n, batch, pool, rng):
    cores = subscripts.split("->")[0].split(",")
    shapes = [batch + (n,) * len(core.removeprefix("...")) for core in cores]
    return [rng.choice(pool, shape) + 1j * rng.choice(pool, shape) for shape in shapes]


def test_every_contraction_of_chern_is_served():
    # 13 Chern contractions and the 7 steps of the two frame changes
    assert len(SUBSCRIPTS) == 20
    assert all(s.startswith("...") and s.count(",") == 1 for s in SUBSCRIPTS)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_second_ricci_gives_the_bits_of_both_layouts(n):
    # second_ricci runs einsum in place: its bits are einsum's, and so those
    # of the points-last route it left, on a grid-sized stack
    rng = np.random.default_rng(n)
    x = rng.normal(size=(625, n, n)) + 1j * rng.normal(size=(625, n, n))
    r = rng.normal(size=(625,) + (n,) * 4) + 1j * rng.normal(size=(625,) + (n,) * 4)
    got = chern.second_ricci(x, r).tobytes()
    assert got == np.einsum("...ij,...ijkl->...kl", x, r).tobytes()
    assert got == _contract("...ij,...ijkl->...kl", x, r).tobytes()


@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
@given(pool=ENTRIES, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_matches_einsum_bit_for_bit(subscripts, pool, seed):
    rng = np.random.default_rng(seed)
    pool = np.array(pool)
    for n in range(1, 5):
        for batch in BATCHES:
            a, b = operands(subscripts, n, batch, pool, rng)
            got, want = _contract(subscripts, a, b), np.einsum(subscripts, a, b)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (subscripts, n, batch)
            if np.prod(batch) > 1:
                assert got.flags.c_contiguous


@pytest.mark.parametrize("batch, n", [((), 2), ((1,), 2), ((1, 1), 3), ((41, 41), 1)])
def test_unmoved_layouts_call_einsum_directly(batch, n, monkeypatch):
    calls = []
    einsum = np.einsum

    def recorded(subscripts, *arrays, **kwargs):
        calls.append((subscripts, [x.shape for x in arrays]))
        return einsum(subscripts, *arrays, **kwargs)

    monkeypatch.setattr(np, "einsum", recorded)
    a = np.ones(batch + (n, n), complex)
    b = np.ones(batch + (n, n, n), complex)
    _contract("...pq,...ikq->...ikp", a, b)
    assert calls == [("...pq,...ikq->...ikp", [a.shape, b.shape])]


def test_broadcast_points_match_einsum():
    a = np.arange(12.0).reshape(3, 2, 2) + 1j
    b = np.arange(8.0).reshape(2, 2, 2) - 2j
    assert _contract("...pq,...ikq->...ikp", a, b).tobytes() == \
        np.einsum("...pq,...ikq->...ikp", a, b).tobytes()
