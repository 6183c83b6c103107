"""The grid flow against its own refinement: observed orders of accuracy.

An observed order survives a change of the stencils' bytes where a byte
oracle does not.  From three runs whose step halves, the order is
``log2(|u_1 - u_2| / |u_2 - u_3|)``: the order of the first error term, with
no exact solution needed.

The metric is poincare_polydisk(1) on a frozen box of half width 0.3 about
0, flowed at tau = 1.  Resolutions ``9, 17, 33, 65`` share the centre node
and halve the spacing.

* In ``h``: one step to T = 2e-3, the centre node's metric; the guard takes
  the substeps the diffusion bound needs, so the time error shrinks with
  ``h^4`` and the spatial one shows.
* In ``dt``: resolution 17, T = 4e-3 in 16, 32, 64 and 128 steps, each under
  the diffusion bound, so no step splits.  Above the bound the guard splits
  every run into the same substeps and the runs agree to the bit.
* The grid's first differences against the exact jet: over the finest pair
  the error falls at order 1.8 or more at every node, the frozen edges'
  one-sided differences included.

These orders do not see the second differences one node in from a frozen
edge, which read the edges' one-sided first differences and are first
order there, nor the checkerboard mode of a periodic grid of even
resolution, which the composed central differences cannot see.  Budget: 1 s.
"""

import math

import numpy as np
import pytest

from curvlab.flow import GridBox, GridMetricField, init_flow, run_flow
from curvlab.functionals import TauParam
from curvlab.metric_model import builtin_metric, metric_jet

P1 = builtin_metric("poincare_polydisk", 1)
TAU = TauParam(1.0, "source")
HALF_WIDTH = 0.3
RESOLUTIONS = (9, 17, 33, 65)


def box(resolution: int) -> GridBox:
    return GridBox((0j,), half_width=HALF_WIDTH, resolution=resolution, boundary="frozen")


def observed_orders(values: list) -> list[float]:
    """The order of each run triple whose step halves, from successive differences."""
    gaps = [abs(a - b) for a, b in zip(values, values[1:])]
    return [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]


def centre_metric(state) -> complex:
    r = state.field.box.resolution
    return complex(state.field.values[r // 2, r // 2, 0, 0])


def test_centre_node_converges_at_second_order_in_h():
    centres = [centre_metric(run_flow(init_flow(P1, box(r), TAU), dt=2e-3, steps=1))
               for r in RESOLUTIONS]
    orders = observed_orders(centres)
    print(f"\norders in h: {', '.join(f'{p:.3f}' for p in orders)}")
    assert all(1.8 <= p <= 2.3 for p in orders), orders


@pytest.mark.parametrize("method, low, high", [("heun", 1.8, 2.3), ("euler", 0.9, 1.2)])
def test_time_steps_converge_at_the_method_order(method, low, high):
    start = init_flow(P1, box(17), TAU)
    centres = []
    for steps in (16, 32, 64, 128):
        state = run_flow(start, dt=4e-3 / steps, steps=steps, method=method)
        # under the diffusion bound no step splits, so each run takes its own dt
        assert all((row.substeps, row.rejected) == (1, 0) for row in state.history)
        centres.append(centre_metric(state))
    orders = observed_orders(centres)
    print(f"\n{method} orders in dt: {', '.join(f'{p:.3f}' for p in orders)}")
    assert all(low <= p <= high for p in orders), orders


def test_first_differences_converge_at_every_node():
    # the nodes of the coarser grid are every other node of the finer one
    coarse, fine = (box(r) for r in RESOLUTIONS[-2:])
    errors = [np.abs(GridMetricField.from_spec(P1, b).jets().d_g
                     - metric_jet(P1, b.nodes).d_g)[..., 0, 0, 0] for b in (coarse, fine)]
    coarse_error, fine_error = errors[0], errors[1][::2, ::2]
    exact = coarse_error == 0  # the centre, where both differences vanish by symmetry
    assert (fine_error[exact] == 0).all()
    orders = np.log2(coarse_error[~exact] / fine_error[~exact])
    print(f"\nd_g orders over the finest pair: {orders.min():.3f} to {orders.max():.3f}")
    assert orders.min() >= 1.8, orders.min()
