"""A ChernPoint forms each tensor once, and its frame only when a frame tensor is read.

Each command below counts how often connection coefficients and unitary
frames are formed, and the frame reuses the Cholesky factor that checked the
metric's positivity; run with ``-s`` to print the counts.
"""

from functools import cached_property

import numpy as np
import pytest

from curvlab import flow
from curvlab.chern import ChernPoint
from curvlab.cli import main
from curvlab.flow import parabolic_schwarz_residual
from curvlab.functionals import TauParam
from curvlab.metric_model import fixture, hopf, metric_jet
from curvlab.schwarz import HoloMap, connection_invariance_residual, schwarz_inequality_report
from curvlab.tensor_core import UnitaryFrame

PROPERTIES = ("gamma", "torsion", "curvature", "frame", "torsion_frame", "curvature_frame")


@pytest.fixture
def formed(monkeypatch):
    """Counts of formed connection coefficients and unitary frames, while installed."""
    counts = {"gamma": 0, "frames": 0}
    form_gamma = ChernPoint.gamma.func
    from_factor = UnitaryFrame.from_factor.__func__

    def gamma(self):
        counts["gamma"] += 1
        return form_gamma(self)

    def frame(cls, factor):
        counts["frames"] += 1
        return from_factor(cls, factor)

    counted = cached_property(gamma)
    counted.__set_name__(ChernPoint, "gamma")
    monkeypatch.setattr(ChernPoint, "gamma", counted)
    monkeypatch.setattr(UnitaryFrame, "from_factor", classmethod(frame))
    return counts


@pytest.fixture
def no_frames(monkeypatch):
    def refuse(cls, factor):
        raise AssertionError("a unitary frame was formed")

    monkeypatch.setattr(UnitaryFrame, "from_factor", classmethod(refuse))


def run_quietly(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "", captured.err
    return captured.out


def parabolic():
    spec = fixture("F1")
    points = spec.region.sample_points(2, np.random.default_rng(3), 4)
    return parabolic_schwarz_residual(spec, spec, points, TauParam(2.0, "source"), 1.0)


def inequality():
    holo_map = HoloMap.parse(("(z1 + z2)/2", "z1*z2 - z2^2"), 2)
    points = np.array([[0.1, -0.05 + 0.08j], [0.02, 0.03j]])
    return schwarz_inequality_report(fixture("F1"), fixture("F2"), holo_map, points,
                                     1.0, 0.5, 1.0, 2)


def invariance():
    source, target = fixture("F1"), fixture("F2")
    holo_map = HoloMap.parse(("(z1 + z2)/2", "z1*z2 - z2^2"), 2)
    return connection_invariance_residual(source, target, holo_map,
                                          np.array([0.1, -0.05 + 0.08j]), 0.3, -1.0)


FLOW = ["flow", "--metric", "builtin:F1", "--tau", "2", "--dt", "1e-4", "--steps", "2",
        "--extent", "0.1", "--boundary", "frozen"]

# name: (call, connection coefficients formed, frames formed)
COMMANDS = {
    "curvature --check pluriclosed": (
        ["curvature", "--metric", "builtin:F1", "--region", "128", "--check", "pluriclosed"],
        1, 0),
    "curvature --check bianchi,pluriclosed": (
        ["curvature", "--metric", "builtin:F1", "--region", "8", "--check", "bianchi,pluriclosed"],
        2, 0),
    "scan --compare": (["scan", "--metric", "builtin:hopf(2)", "--region", "6", "--compare"],
                       1, 1),
    "schwarz": (["schwarz", "--map", "id", "--source", "builtin:F1", "--target",
                 "builtin:hopf(2)", "--points", "0.1,0.05;0.02,-0.1j"], 2, 2),
    "connection_invariance_residual": (invariance, 2, 2),
    "schwarz_inequality_report": (inequality, 0, 0),
    "parabolic_schwarz_residual": (parabolic, 1, 0),
}


class TestRecord:
    def test_from_jet_keeps_a_chern_point(self):
        jet = metric_jet(hopf(2), np.array([[0.6 + 0.2j, -0.4 + 0.3j], [0.1, 0.5j]]))
        point = ChernPoint.from_jet(jet)
        assert point is not jet and ChernPoint.from_jet(point) is point
        for name in ("point", "g", "d_g", "dd_g"):
            assert getattr(point, name) is getattr(jet, name)

    @pytest.mark.parametrize("name", PROPERTIES + ("g_up",))
    def test_each_property_is_formed_once(self, name):
        point = ChernPoint.from_spec(fixture("F1"), np.array([[0.05, 0.02j], [0.1, -0.03]]))
        assert getattr(point, name) is getattr(point, name)

    def test_frame_tensors_wait_for_a_read(self, formed):
        point = ChernPoint.from_spec(fixture("F1"), np.array([0.05, 0.02j]))
        point.torsion, point.curvature
        assert formed == {"gamma": 1, "frames": 0}
        point.curvature_frame, point.torsion_frame, point.frame
        assert formed == {"gamma": 1, "frames": 1}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_tensors_and_frames_formed_per_command(name, formed, capsys):
    call, gammas, frames = COMMANDS[name]
    if callable(call):
        call()
    else:
        run_quietly(call, capsys)
    print(f"\n{name}: connection coefficients formed {formed['gamma']} times "
          f"(expected {gammas}), unitary frames {formed['frames']} (expected {frames})")
    assert formed == {"gamma": gammas, "frames": frames}


# commands that read frames, each formed from the factor that checked positivity
FACTORED = {
    "scan --compare": COMMANDS["scan --compare"][0],
    "gauduchon --roundtrip": ["gauduchon", "--metric", "builtin:hopf(2)", "--region", "6",
                              "--t=-1,0.25,2", "--roundtrip"],
    "schwarz": COMMANDS["schwarz"][0],
}


@pytest.mark.parametrize("name", sorted(FACTORED))
def test_one_cholesky_per_point_stack(name, formed, monkeypatch, capsys):
    stacks, factorisations = [], []
    from_spec = ChernPoint.from_spec.__func__
    cholesky = np.linalg.cholesky

    def record(cls, spec, z):
        stacks.append(z)
        return from_spec(cls, spec, z)

    def factor(g):
        factorisations.append(g)
        return cholesky(g)

    monkeypatch.setattr(ChernPoint, "from_spec", classmethod(record))
    monkeypatch.setattr(np.linalg, "cholesky", factor)
    run_quietly(FACTORED[name], capsys)
    print(f"\n{name}: {len(stacks)} point stacks, {len(factorisations)} Cholesky "
          f"factorisations, {formed['frames']} unitary frames")
    assert formed["frames"] > 0
    assert len(factorisations) == len(stacks)


def test_flow_forms_one_record_per_velocity_and_no_frame(formed, monkeypatch, capsys):
    velocities = []
    velocity = flow.thcf_velocity

    def counted(jet, tau):
        velocities.append(jet)
        return velocity(jet, tau)

    monkeypatch.setattr(flow, "thcf_velocity", counted)
    run_quietly(FLOW, capsys)
    print(f"\nflow ({len(velocities)} velocities): connection coefficients formed "
          f"{formed['gamma']} times, unitary frames {formed['frames']}")
    assert formed == {"gamma": len(velocities), "frames": 0}


@pytest.mark.parametrize(
    "call",
    [
        ["curvature", "--metric", "builtin:F1", "--region", "8", "--check", "pluriclosed"],
        FLOW,
        parabolic,
    ],
    ids=["curvature --check pluriclosed", "flow", "parabolic_schwarz_residual"],
)
def test_chart_only_work_builds_no_frame(call, no_frames, capsys):
    if callable(call):
        assert np.all(call().preconditions_hold)
    else:
        run_quietly(call, capsys)
