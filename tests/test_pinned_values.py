"""Values pinned from the pointwise variance-table implementation.

``tests/data/pinned_values.json`` holds frame tensors, chart torsion squares
and flow histories computed at commit 8e7da75, before the Chern formulas were
rewritten over batch axes and the flow's private copy of them was deleted.
Every quantity here must still match to 1e-12 relative to its array's scale.
The flow ``F1-tau2-periodic-heun`` was recorded again when the flow's substep
guard became the diffusion bound ``dt <= 0.2 h^2 g_min``: the periodic seam
grid then takes 1 substep per step instead of 8, and the values moved by
about 1.5e-7 relative.  A 64-substep reference run checks that entry's
accuracy.

``tests/data/pinned_cli.json`` holds ``gauduchon`` family norms computed at
commit 7328989, where the command still ran one point per call; they guard
the family contractions.  Its ``scan --compare`` rows were recorded again
when the deviation became exact, the spectral radius of the difference form
over all unit Hermitian forms: they pin that bound, which no random draw
enters, and the pluriclosed residuals, which equal commit 75f7ee6's bit for
bit.  The family entries were kept as recorded.  Every entry must match to
1e-12 relative to ``max(1, |entry|)``.

To record both files again from the code in this checkout::

    PYTHONPATH=src python3 tests/test_pinned_values.py

and to record only some flows of ``pinned_values.json`` again, name them::

    PYTHONPATH=src python3 tests/test_pinned_values.py F1-tau2-periodic-heun
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from curvlab.chern import ChernPoint, q_squared_chart
from curvlab.cli import main
from curvlab.flow import FlowState, GridBox, init_flow, run_flow
from curvlab.functionals import TauParam
from curvlab.metric_model import fixture, hopf, metric_jet, poincare_polydisk

DATA = Path(__file__).resolve().parent / "data" / "pinned_values.json"
CLI_DATA = DATA.with_name("pinned_cli.json")
RTOL = 1e-12

POINTS = {
    "F1": (fixture("F1"), [0.05 + 0.02j, -0.04j]),
    "F1@0": (fixture("F1"), [0j, 0j]),
    "F2": (fixture("F2"), [0.3 + 0.1j, 0.2j]),
    "F3": (fixture("F3"), [0.7 + 0.1j, -0.3j]),
    "F4": (fixture("F4"), [0.5 + 0.5j, 1.0 + 0j]),
    "P1": (poincare_polydisk(1), [0.3 + 0.2j]),
    "H3": (hopf(3), [0.6 + 0.2j, -0.4 + 0.3j, 0.1 - 0.5j]),
}

# (metric, center, extent, resolution, boundary, tau, method, dt, steps)
FLOWS = {
    "F1-tau2-periodic-heun": (fixture("F1"), (0.03 + 0.01j, -0.02j), 0.1, 5,
                              "periodic", 2.0, "heun", 1e-4, 4),
    "F1-tau2-frozen-heun": (fixture("F1"), (0.03 + 0.01j, -0.02j), 0.1, 5,
                            "frozen", 2.0, "heun", 1e-4, 4),
    "P1-tauinf-frozen-euler": (poincare_polydisk(1), (0.1 + 0j,), 0.3, 21,
                               "frozen", math.inf, "euler", 1e-4, 5),
}

_COMPARE = ("--compare",)
_FAMILY = ("--t=-1,0.25,2", "--roundtrip")
# name -> (subcommand, metric, points, flags, report fields pinned per row)
CLI_CALLS = {
    "compare-F1": ("scan", "builtin:example22",
                   "0.05+0.02j,-0.04j;0.1-0.03j,0.02+0.08j;0,0", _COMPARE,
                   ("deviation", "pluriclosed")),
    "compare-P2": ("scan", "builtin:poincare_polydisk(2)",
                   "0.3+0.1j,0.2j;-0.5,0.1-0.4j", _COMPARE, ("deviation", "pluriclosed")),
    "compare-H2": ("scan", "builtin:hopf(2)",
                   "0.7+0.1j,-0.3j;1,0;-0.2+0.5j,0.4", _COMPARE, ("deviation", "pluriclosed")),
    "family-F1": ("gauduchon", "builtin:example22",
                  "0.05+0.02j,-0.04j;0.1-0.03j,0.02+0.08j", _FAMILY,
                  ("torsion_norm", "curvature_norm")),
    "family-P2": ("gauduchon", "builtin:poincare_polydisk(2)",
                  "0.3+0.1j,0.2j;-0.5,0.1-0.4j", _FAMILY, ("torsion_norm", "curvature_norm")),
    "family-H2": ("gauduchon", "builtin:hopf(2)",
                  "0.7+0.1j,-0.3j;-0.2+0.5j,0.4", _FAMILY, ("torsion_norm", "curvature_norm")),
}


def _pairs(array) -> list:
    a = np.asarray(array, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _complex(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def point_values(name: str) -> dict:
    spec, z = POINTS[name]
    point = ChernPoint.from_jet(metric_jet(spec, np.array(z, dtype=complex)))
    return {
        "torsion_frame": point.torsion_frame,
        "curvature_frame": point.curvature_frame,
        "q_squared_chart": q_squared_chart(point.torsion, point.g, point.g_up),
    }


def flow_start(name: str) -> FlowState:
    spec, center, extent, res, boundary, tau, *_ = FLOWS[name]
    box = GridBox(center, half_width=extent, resolution=res, boundary=boundary)
    return init_flow(spec, box, TauParam(tau, "source"))


def flow_values(name: str) -> dict:
    spec, _, _, res, _, _, method, dt, steps = FLOWS[name]
    state = run_flow(flow_start(name), dt, steps, method)
    mid = (res // 2,) * (2 * spec.n)
    off = (res // 2 - 1,) + (res // 2 + 1,) * (2 * spec.n - 1)
    return {
        "min_eigenvalue": np.array([row.min_eigenvalue for row in state.history]),
        "max_velocity": np.array([row.max_velocity for row in state.history]),
        "center_metric": state.field.values[mid],
        "offcenter_metric": state.field.values[off],
    }


def cli_values(name: str) -> np.ndarray:
    """The pinned fields of every report row, ``(rows, fields)``."""
    command, metric, points, flags, fields = CLI_CALLS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--metric", metric, "--points", points, *flags])
    assert code == 0, f"{name} exited {code}"
    rows = json.loads(out.getvalue())["results"]
    return np.array([[row[field] for field in fields] for row in rows])


def record() -> dict:
    return {
        "points": {
            name: {k: _pairs(v) for k, v in point_values(name).items()} for name in POINTS
        },
        "flows": {
            name: {k: _pairs(v) for k, v in flow_values(name).items()} for name in FLOWS
        },
    }


def assert_matches(new: np.ndarray, ref: np.ndarray, label: str) -> None:
    scale = float(np.max(np.abs(ref)))
    gap = float(np.max(np.abs(new - ref)))
    assert gap <= RTOL * scale, f"{label}: off by {gap:.3e} at scale {scale:.3e}"


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def pinned_cli() -> dict:
    return json.loads(CLI_DATA.read_text())


@pytest.mark.parametrize("name", sorted(POINTS))
def test_frame_tensors_match_pinned(pinned, name):
    for key, value in point_values(name).items():
        assert_matches(value, _complex(pinned["points"][name][key]), f"{name} {key}")


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_flow_history_matches_pinned(pinned, name):
    for key, value in flow_values(name).items():
        assert_matches(value, _complex(pinned["flows"][name][key]), f"{name} {key}")


def test_periodic_flow_matches_a_64_substep_reference():
    """One substep per step on the seam grid is within 1e-6 of 64 substeps per step."""
    *_, method, dt, steps = FLOWS["F1-tau2-periodic-heun"]
    start = flow_start("F1-tau2-periodic-heun")
    state = run_flow(start, dt, steps, method)
    reference = run_flow(start, dt / 64, 64 * steps, method)
    ref_values = reference.field.values
    grid = float(np.abs(state.field.values - ref_values).max() / np.abs(ref_values).max())
    velocity = max(abs(row.max_velocity - ref.max_velocity) / abs(ref.max_velocity)
                   for row, ref in zip(state.history, reference.history[63::64]))
    print(f"\nF1-tau2-periodic-heun against 64 substeps per step: grid {grid:.2e}, "
          f"max_velocity {velocity:.2e} relative")
    assert [row.substeps for row in state.history] == [1] * steps
    assert grid <= 1e-6 and velocity <= 1e-6


@pytest.mark.parametrize("name", sorted(CLI_CALLS))
def test_cli_values_match_pinned(pinned_cli, name):
    new = cli_values(name)
    ref = np.array(pinned_cli[name])
    assert new.shape == ref.shape
    gap = np.abs(new - ref) / np.maximum(1.0, np.abs(ref))
    assert float(gap.max()) <= RTOL, f"{name}: off by {float(gap.max()):.3e}"


if __name__ == "__main__":
    if sys.argv[1:]:
        data = json.loads(DATA.read_text())
        flows = record()["flows"]
        for name in sys.argv[1:]:
            data["flows"][name] = flows[name]
        DATA.write_text(json.dumps(data, indent=1) + "\n")
    else:
        DATA.parent.mkdir(exist_ok=True)
        DATA.write_text(json.dumps(record(), indent=1) + "\n")
        cli = {name: cli_values(name).tolist() for name in CLI_CALLS}
        CLI_DATA.write_text(json.dumps(cli, indent=1) + "\n")
