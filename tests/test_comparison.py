"""The exact pluriclosed comparison against sampled forms.

``functionals.comparison_deviation`` is the largest ``|RBC^0 - altered HSC / 2|``
over unit Hermitian forms, the spectral radius of the difference form
``K_d``.  The oracle here is the sampled gap that ``scan --compare`` reported
before the bound was exact: the largest gap over seeded random PSD forms,
``v v^H`` of complex Gaussian ``v``, projected to unit norm.  PSD forms are
Hermitian, so the bound must reach every sampled gap, up to rounding.

Run with ``-s`` to print, per metric, the deviation and the sampled maximum
over 32 region points and the time per point of a 32-point ``scan --compare``.
"""

import contextlib
import io
import json
import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab import functionals
from curvlab.chern import ChernPoint, swap24
from curvlab.cli import _parse_metric, main
from curvlab.functionals import TauParam, altered_hsc_forms, comparison_deviation, rbc_forms
from curvlab.metric_model import example22
from curvlab.tensor_core import psd_project_batch

FORMS = 256
EPS = np.finfo(float).eps
TAU0 = TauParam(0.0, "target")

# name: (metric reference, pluriclosed)
METRICS = {
    "P2": ("builtin:poincare_polydisk(2)", True),
    "H2": ("builtin:hopf(2)", True),
    "F3": ("builtin:F3", True),
    "F1": ("builtin:F1", False),
    "hopf(3)": ("builtin:hopf(3)", False),
}
_A3 = np.random.default_rng(5).normal(size=(3, 3, 3, 2)) @ np.array([1.0, 1.0j])
SPECS = {
    **{name: _parse_metric(ref) for name, (ref, _) in METRICS.items()},
    # the most negative eigenvalue of its K_d has the largest magnitude
    "example22(3)": example22(3, 0.5 * (_A3 - np.swapaxes(_A3, 0, 1)), 0.2),
}


def form_gaps(point, forms):
    """``|RBC^0 - altered HSC / 2|`` of each form ``(..., B, n, n)``, through the form pairing."""
    return np.abs(rbc_forms(point, forms, TAU0) - 0.5 * altered_hsc_forms(point, forms))


def sampled_gap(point, rng, count=FORMS):
    """The largest gap over ``count`` random unit PSD forms per point."""
    n = point.g.shape[-1]
    draws = rng.normal(size=point.g.shape[:-2] + (count, 2, n, n))
    raw = draws[..., 0, :, :] + 1j * draws[..., 1, :, :]
    forms, ok = psd_project_batch(raw @ np.conj(np.swapaxes(raw, -2, -1)))
    assert ok.all()
    return form_gaps(point, forms).max(axis=-1)


def assert_bounds_samples(deviation, sampled, n):
    # 4 m eps ||K_d||_2 with m = n^2 the side of K_d; the deviation is ||K_d||_2
    slack = 4 * n * n * EPS * deviation
    assert np.all(deviation >= sampled - slack), float(np.max(sampled - deviation))


def region_point(spec, count, seed=0):
    """``count`` points of the region, as ``scan --region count --seed seed`` draws them."""
    points = spec.region.sample_points(spec.n, np.random.default_rng(seed), count)
    return points, ChernPoint.from_spec(spec, points)


def compare_report(ref, count):
    """The ``scan --compare`` report over ``count`` region points, and main()'s median time."""
    argv = ["scan", "--metric", ref, "--region", str(count), "--compare"]
    times = []
    for _ in range(7):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = main(argv)
            times.append(time.perf_counter() - start)
        assert code == 0
    return json.loads(out.getvalue()), statistics.median(times)


@pytest.mark.parametrize("name", list(METRICS))
def test_deviation_against_sampled_forms(name):
    ref, pluriclosed = METRICS[name]
    spec = SPECS[name]
    _, point = region_point(spec, 32)
    deviation = comparison_deviation(point)
    sampled = sampled_gap(point, np.random.default_rng(1))
    report, seconds = compare_report(ref, 32)
    print(f"\n{name}: deviation {deviation.max():.3g}, largest gap over {FORMS} sampled forms "
          f"{sampled.max():.3g}; scan --compare {seconds / 32 * 1e6:.1f} us per point "
          f"(32 points)")
    assert deviation.shape == (32,)
    assert [row["deviation"] for row in report["results"]] == deviation.tolist()
    if pluriclosed:
        assert deviation.max() <= 1e-14 and sampled.max() <= 1e-14
    else:
        assert_bounds_samples(deviation, sampled, spec.n)
        assert deviation.min() > 1e-3


@given(
    c=st.lists(st.floats(min_value=-0.7, max_value=0.7), min_size=4, max_size=4),
    eps=st.floats(min_value=-0.2, max_value=0.2),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_deviation_bounds_sampled_forms_on_example22(c, eps, seed):
    # a[i, k, p] antisymmetric in (i, k): a[0, 1, p] = -a[1, 0, p] = c_p; with
    # |c_p| < 1 the metric stays positive definite on the ball of radius 1/4
    a = np.zeros((2, 2, 2), dtype=complex)
    a[0, 1] = [c[0] + 1j * c[1], c[2] + 1j * c[3]]
    a[1, 0] = -a[0, 1]
    rng = np.random.default_rng(seed)
    spec = example22(2, a, eps)
    point = ChernPoint.from_spec(spec, spec.region.sample_points(2, rng, 4))
    assert_bounds_samples(comparison_deviation(point), sampled_gap(point, rng), 2)


@pytest.mark.parametrize("name", ["F1", "hopf(3)", "example22(3)"])
def test_deviation_is_attained_by_a_hermitian_form(name):
    # the top eigenvector of K_d, as a form over the Hermitian basis, has the
    # deviation as its gap: the bound is the supremum, not only above it
    spec = SPECS[name]
    _, point = region_point(spec, 8, seed=4)
    r = point.curvature_frame
    difference = functionals._tempered_tensor(point, TAU0) - 0.5 * (r + swap24(r))
    eigs, vecs = np.linalg.eigh(functionals._quadratic_forms(difference))
    top = np.take_along_axis(vecs, np.argmax(np.abs(eigs), axis=-1)[:, None, None], axis=-1)
    forms = np.tensordot(top[..., 0], functionals._hermitian_basis(spec.n), axes=1)[:, None]
    deviation = comparison_deviation(point)
    gaps = form_gaps(point, forms)[:, 0]
    assert np.all(np.abs(gaps - deviation) <= 4 * spec.n**2 * EPS * deviation), gaps - deviation


def test_batch_axes_follow_the_point():
    spec = SPECS["F1"]
    points, _ = region_point(spec, 6, seed=2)
    stacked = comparison_deviation(ChernPoint.from_spec(spec, points.reshape(2, 3, 2)))
    assert stacked.shape == (2, 3)
    singles = [comparison_deviation(ChernPoint.from_spec(spec, z)) for z in points]
    assert all(np.shape(value) == () for value in singles)
    np.testing.assert_allclose(stacked.ravel(), singles, rtol=1e-14)
