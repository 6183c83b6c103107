"""The closed-form inverses and eigenvalues of 1x1 and 2x2 metrics against LAPACK.

``metric_inverse_up`` and ``hermitian_eigenvalues`` are closed forms for
n <= 2 and LAPACK for n >= 3.  LAPACK is the oracle here:

* n = 1 gives LAPACK's bits, the inverse of a real (Hermitian) entry and
  the eigenvalue of any entry;
* n = 2 gives, on Hermitian positive definite stacks scaled by 1e-150, 1 and
  1e150, an inverse within 8 eps normwise relative of LAPACK's and
  eigenvalues within 8 eps |A|_2.  Both routes' inverses err by about
  eps times the condition number, so the draws keep it at most 4;
* n >= 3 gives LAPACK's bits;
* an exactly singular or non-finite metric is a ``NumericalError``.

Run with ``-s`` to print the largest deviation from LAPACK over a seeded
pool and the time per call of both routes at 1, 25 and 625 points.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.errors import NumericalError
from curvlab.tensor_core import hermitian_eigenvalues, hermitian_part, metric_inverse_up

EPS = np.finfo(float).eps
SCALES = (1e-150, 1.0, 1e150)


def lapack_inverse_up(g):
    return np.conj(np.linalg.inv(g))


def hermitian_2x2(lam, theta, phi):
    """``U diag(lam) U^H`` over the stack axes of its arguments, exactly Hermitian."""
    c, s = np.cos(theta) + 0j, np.sin(theta) * np.exp(1j * phi)
    u = np.stack([np.stack([c, -np.conj(s)], -1), np.stack([s, c], -1)], -2)
    return hermitian_part(np.einsum("...ij,...j,...kj->...ik", u, lam, np.conj(u)))


def deviations(g):
    """Normwise relative inverse and ``|A|_2``-relative eigenvalue deviations, per matrix."""
    want = lapack_inverse_up(g)
    two_norm = np.linalg.norm(want, ord=2, axis=(-2, -1))
    inverse = np.linalg.norm(metric_inverse_up(g) - want, ord=2, axis=(-2, -1)) / two_norm
    scale = np.linalg.norm(g, ord=2, axis=(-2, -1))
    eigen = np.abs(hermitian_eigenvalues(g) - np.linalg.eigvalsh(g)).max(axis=-1) / scale
    return inverse, eigen


class TestOneByOne:
    def test_inverse_is_lapack_bits(self):
        rng = np.random.default_rng(1)
        g = rng.exponential(size=(1681, 1, 1)) * 10.0 ** rng.integers(-300, 300, (1681, 1, 1))
        for metric in (g + 0j, (g + 0j)[7], hermitian_part(g + 1j * g)):
            assert metric_inverse_up(metric).tobytes() == lapack_inverse_up(metric).tobytes()

    def test_eigenvalue_is_lapack_bits(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 41, 1, 1)) + 1j * rng.normal(size=(3, 41, 1, 1))
        got = hermitian_eigenvalues(m)
        assert got.dtype == np.float64 and got.shape == (3, 41, 1)
        assert np.array_equal(got, np.linalg.eigvalsh(m))
        assert got.tobytes() == np.linalg.eigvalsh(m).tobytes()


@st.composite
def positive_definite_stacks(draw):
    shape = draw(st.sampled_from([(), (5,), (2, 3)]))
    count = math.prod(shape)
    lam = draw(st.lists(st.tuples(st.floats(1.0, 4.0), st.floats(1.0, 4.0)),
                        min_size=count, max_size=count))
    theta = draw(st.lists(st.floats(0.0, math.pi), min_size=count, max_size=count))
    phi = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=count, max_size=count))
    g = hermitian_2x2(np.reshape(lam, shape + (2,)), np.reshape(theta, shape),
                      np.reshape(phi, shape))
    return draw(st.sampled_from(SCALES)) * g


class TestTwoByTwo:
    @given(positive_definite_stacks())
    @settings(max_examples=80, deadline=None)
    def test_within_eight_eps_of_lapack(self, g):
        inverse, eigen = deviations(g)
        assert metric_inverse_up(g).shape == g.shape
        assert hermitian_eigenvalues(g).shape == g.shape[:-1]
        assert (inverse <= 8 * EPS).all(), inverse.max() / EPS
        assert (eigen <= 8 * EPS).all(), eigen.max() / EPS

    def test_eigenvalues_ascend_and_are_exact_on_diagonals(self):
        g = np.array([[[3.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 3.0]], [[2.0, 0.0], [0.0, 2.0]]])
        assert np.array_equal(hermitian_eigenvalues(g), [[1.0, 3.0], [1.0, 3.0], [2.0, 2.0]])

    def test_deviation_and_time_per_call(self):
        rng = np.random.default_rng(24)
        worst = {}
        for scale in SCALES:
            lam = rng.uniform(1.0, 4.0, size=(4096, 2))
            theta, phi = rng.uniform(0.0, math.pi, 4096), rng.uniform(0.0, 2 * math.pi, 4096)
            inverse, eigen = deviations(scale * hermitian_2x2(lam, theta, phi))
            worst[scale] = inverse.max() / EPS, eigen.max() / EPS
            assert max(worst[scale]) <= 8
        print("\nlargest deviation from LAPACK, 4096 matrices per scale: " + ", ".join(
            f"{scale:g}: inverse {inv:.2f} eps, eigenvalues {eig:.2f} eps |A|"
            for scale, (inv, eig) in worst.items()))
        routes = {"inverse": (metric_inverse_up, lapack_inverse_up),
                  "eigenvalues": (hermitian_eigenvalues, np.linalg.eigvalsh)}
        for n in (1, 2):
            for points in (1, 25, 625):
                g = rng.normal(size=(points, n, n)) + 1j * rng.normal(size=(points, n, n))
                g = g @ np.conj(np.swapaxes(g, -1, -2)) + np.eye(n)
                times = {name: [per_call_us(route, g) for route in pair]
                         for name, pair in routes.items()}
                print(f"n={n}, {points} points: " + ", ".join(
                    f"{name} {closed:.1f} us (LAPACK {lapack:.1f} us)"
                    for name, (closed, lapack) in times.items()))


def per_call_us(route, g, calls=50):
    """The least time per call over seven rounds after a warm-up call, in microseconds."""
    route(g)
    rounds = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(calls):
            route(g)
        rounds.append((time.perf_counter() - start) / calls)
    return min(rounds) * 1e6


class TestThreeByThree:
    @pytest.mark.parametrize("n", [3, 4])
    def test_lapack_bits(self, n):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(7, n, n)) + 1j * rng.normal(size=(7, n, n))
        g = m @ np.conj(np.swapaxes(m, -1, -2)) + np.eye(n)
        assert metric_inverse_up(g).tobytes() == lapack_inverse_up(g).tobytes()
        assert hermitian_eigenvalues(g).tobytes() == np.linalg.eigvalsh(g).tobytes()


@pytest.mark.parametrize(
    "g",
    [
        np.zeros((1, 1)),
        np.zeros((2, 2)),
        np.ones((2, 2)),  # a nonzero corner with a zero Schur complement
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.stack([np.eye(2), np.ones((2, 2)), np.eye(2)]),  # one singular matrix of a stack
        np.zeros((3, 3)),
        np.array([[np.nan]]),
        np.array([[1.0, np.inf], [np.inf, 1.0]]),
        np.diag([1.0, np.nan, 1.0]),
    ],
    ids=["1x1 zero", "2x2 zero", "2x2 ones", "2x2 rank one", "stack", "3x3 zero", "1x1 nan",
         "2x2 inf", "3x3 nan"],
)
def test_singular_or_non_finite_metric_is_numerical_error(g):
    with pytest.raises(NumericalError, match="metric matrix is singular"):
        metric_inverse_up(g)
