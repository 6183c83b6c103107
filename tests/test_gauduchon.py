"""Connection-family transforms: round trips and trace displays.

The inverse transform and the two assembled displays (tempered Ricci and
tempered real bisectional curvature from family data) are checked against
the direct Chern route, which is computed by entirely different code.
"""

import math

import numpy as np
import pytest

from curvlab.chern import ChernPoint
from curvlab.errors import ConfigError
from curvlab.functionals import TauParam, rbc, ric_tau_frame
from curvlab.gauduchon import (
    ConnectionTensors,
    chern_from_family,
    family_ricci_traces,
    gauduchon_family,
    rbc_tau_from_family,
    ric_tau_from_family,
)
from curvlab.metric_model import fixture
from curvlab.tensor_core import psd_project

PARAMS = (-2.0, -1.0, -0.5, 0.25, 0.75, 2.0, 5.0)

POINTS = {
    "F1": np.array([0.05, -0.08 + 0.03j]),
    "F2": np.array([0.3, -0.1 + 0.2j]),
    "F3": np.array([0.7, 0.4 - 0.3j]),
    "F4": np.array([0.9, -1.2]),
}


def all_points():
    return [(name, ChernPoint.from_spec(fixture(name), z)) for name, z in POINTS.items()]


class TestFamily:
    def test_chern_member_is_exact(self):
        pt = ChernPoint.from_spec(fixture("F1"), POINTS["F1"])
        member = gauduchon_family(pt, 1.0)
        assert np.array_equal(member.torsion, pt.torsion_frame)
        assert np.array_equal(member.curvature, pt.curvature_frame)
        back_t, back_r = chern_from_family(member)
        assert np.array_equal(back_t, pt.torsion_frame)
        assert np.array_equal(back_r, pt.curvature_frame)

    @pytest.mark.parametrize("name", ["F1", "F3"])
    def test_batched_point_equals_pointwise_loop(self, name):
        spec = fixture(name)
        points = spec.region.sample_points(spec.n, np.random.default_rng(4), 6).reshape(2, 3, 2)
        stacked = ChernPoint.from_spec(spec, points)
        for t in PARAMS + (1.0,):
            member = gauduchon_family(stacked, t)
            back_t, back_r = chern_from_family(member)
            for idx in np.ndindex(2, 3):
                single = gauduchon_family(ChernPoint.from_spec(spec, points[idx]), t)
                single_back = chern_from_family(single)
                pairs = [(member.torsion, single.torsion), (member.curvature, single.curvature),
                         (back_t, single_back[0]), (back_r, single_back[1])]
                for batched, ref in pairs:
                    scale = max(1.0, float(np.max(np.abs(ref))))
                    assert np.max(np.abs(batched[idx] - ref)) <= 1e-13 * scale, (t, idx)

    def test_torsion_scales_linearly(self):
        pt = ChernPoint.from_spec(fixture("F1"), POINTS["F1"])
        member = gauduchon_family(pt, -1.0)
        assert np.allclose(member.torsion, -pt.torsion_frame, atol=1e-14)

    def test_kaehler_curvature_is_parameter_independent(self):
        # with vanishing torsion the two swap terms restore the original tensor
        pt = ChernPoint.from_spec(fixture("F2"), POINTS["F2"])
        for t in PARAMS:
            member = gauduchon_family(pt, t)
            assert np.allclose(member.curvature, pt.curvature_frame, atol=1e-12), (
                f"Kaehler family member t={t} moved"
            )
            assert np.allclose(member.torsion, 0.0, atol=1e-12)

    def test_round_trip_all_fixtures(self):
        for name, pt in all_points():
            for t in PARAMS:
                member = gauduchon_family(pt, t)
                back_t, back_r = chern_from_family(member)
                et = np.max(np.abs(back_t - pt.torsion_frame))
                er = np.max(np.abs(back_r - pt.curvature_frame))
                assert et <= 1e-9, f"{name} t={t}: torsion round trip {et:.3e}"
                assert er <= 1e-9, f"{name} t={t}: curvature round trip {er:.3e}"

    def test_poles_rejected(self):
        pt = ChernPoint.from_spec(fixture("F1"), POINTS["F1"])
        for bad in (0.0, 0.5):
            member = ConnectionTensors(bad, pt.torsion_frame, pt.curvature_frame)
            with pytest.raises(ConfigError):
                chern_from_family(member)
            with pytest.raises(ConfigError):
                ric_tau_from_family(member, TauParam(1.0, "source"))

    def test_trace_shapes(self):
        pt = ChernPoint.from_spec(fixture("F3"), POINTS["F3"])
        traces = family_ricci_traces(gauduchon_family(pt, -1.0))
        assert len(traces) == 4
        for tr in traces:
            assert tr.shape == (2, 2)


class TestDisplays:
    """The assembled displays must match the direct Chern computation."""

    def rng_params(self, rng, count):
        out = []
        while len(out) < count:
            t = float(rng.uniform(-2.0, 3.0))
            if abs(t) < 0.05 or abs(t - 0.5) < 0.05:
                continue
            out.append(t)
        return out

    def test_ric_tau_display_matches_direct(self):
        rng = np.random.default_rng(42)
        taus = [0.3, 1.0, 2.5, math.inf]
        for name, pt in all_points():
            direct = {tv: ric_tau_frame(pt, TauParam(tv, "source")) for tv in taus}
            for t in self.rng_params(rng, 6):
                member = gauduchon_family(pt, t)
                for tv in taus:
                    assembled = ric_tau_from_family(member, TauParam(tv, "source"))
                    err = np.max(np.abs(assembled - direct[tv]))
                    assert err <= 1e-9, f"{name} t={t} tau={tv}: Ricci display off by {err:.3e}"

    def test_rbc_tau_display_matches_direct(self):
        rng = np.random.default_rng(43)
        for name, pt in all_points():
            for t in self.rng_params(rng, 4):
                member = gauduchon_family(pt, t)
                for _ in range(4):
                    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                    form = psd_project(a @ a.conj().T)
                    tau = TauParam(float(rng.uniform(0.0, 3.0)), "target")
                    assembled = rbc_tau_from_family(member, form.entries, tau)
                    direct = rbc(pt, form, tau)
                    err = abs(assembled - direct)
                    assert err <= 1e-9, f"{name} t={t} tau={tau.value}: RBC display off by {err:.3e}"

    def test_bismut_ric_display(self):
        # spot check the t = -1 member against the direct route at tau = 1
        pt = ChernPoint.from_spec(fixture("F1"), np.array([0.0, 0.0]))
        member = gauduchon_family(pt, -1.0)
        assembled = ric_tau_from_family(member, TauParam(1.0, "source"))
        assert np.allclose(assembled, 0.4 * np.eye(2), atol=1e-10), f"got {assembled}"
