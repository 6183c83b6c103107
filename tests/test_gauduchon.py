"""Connection-family transforms: round trips and trace displays.

The inverse transform and the two assembled displays (tempered Ricci and
tempered real bisectional curvature from family data) are checked against
the direct Chern route, which is computed by entirely different code.
"""

import dataclasses
import math

import numpy as np
import pytest

from curvlab import chern, gauduchon
from curvlab.chern import ChernPoint, frame_traces
from curvlab.cli import main
from curvlab.errors import ConfigError
from curvlab.functionals import TauParam, rbc, ric_tau_frame
from curvlab.gauduchon import (
    ConnectionTensors,
    chern_from_family,
    gauduchon_family,
    rbc_tau_from_family,
    ric_tau_from_family,
)
from curvlab.metric_model import example22, fixture, hopf
from curvlab.tensor_core import UnitaryFrame, psd_project

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
        traces = frame_traces(gauduchon_family(pt, -1.0).curvature)
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


# ---------------------------------------------------------------------------
# The per-point einsums the frame algebra of curvlab.chern replaced, kept as
# an oracle.  The family and its inverse were already written over batch
# axes and must agree bit for bit; the traces and displays were one-point
# code and are compared one point at a time.


def oracle_family(ct, cr, t):
    if t == 1.0:
        return ct.copy(), cr.copy()
    s = (1.0 - t) / 2.0
    tta = np.einsum("...ikr,...jlr->...ijkl", ct, np.conj(ct))
    ttb = np.einsum("...irl,...jrk->...ijkl", ct, np.conj(ct))
    curvature = (
        t * cr
        + s * (np.swapaxes(cr, -4, -2) + np.swapaxes(cr, -3, -1))
        + s * s * (tta - ttb)
    )
    return t * ct, curvature


def oracle_inverse(tt, tr, t):
    if t == 1.0:
        return tt.copy(), tr.copy()
    den = 2.0 * t * (2.0 * t - 1.0)
    u = t - 1.0
    a1 = (t * t + 2.0 * t - 1.0) / den
    a2 = u * u / den
    a3 = u / (2.0 * (2.0 * t - 1.0))
    q1 = -(u * u) / (4.0 * t * t * (2.0 * t - 1.0))
    q2 = u * u * (t * t + 2.0 * t - 1.0) / (8.0 * t**3 * (2.0 * t - 1.0))
    q3 = u**4 / (8.0 * t**3 * (2.0 * t - 1.0))
    q4 = u**3 / (8.0 * t * t * (2.0 * t - 1.0))
    conj_tt = np.conj(tt)
    swapped = np.swapaxes(tr, -4, -2)
    curvature = (
        a1 * tr
        + a2 * np.swapaxes(swapped, -3, -1)
        + a3 * (swapped + np.swapaxes(tr, -3, -1))
        + q1 * np.einsum("...ikr,...jlr->...ijkl", tt, conj_tt)
        + q2 * np.einsum("...irl,...jrk->...ijkl", tt, conj_tt)
        + q3 * np.einsum("...krj,...lri->...ijkl", tt, conj_tt)
        + q4 * (
            np.einsum("...krl,...jri->...ijkl", tt, conj_tt)
            + np.einsum("...irj,...lrk->...ijkl", tt, conj_tt)
        )
    )
    return tt / t, curvature


def oracle_traces(tr):
    return tuple(np.einsum(f"{s}->kl", tr) for s in ("klii", "iikl", "kiil", "ilki"))


def oracle_ric_tau(tt, tr, t, tau):
    trace1, trace2, trace3, trace4 = oracle_traces(tr)
    den = 2.0 * t * (2.0 * t - 1.0)
    u = t - 1.0
    a1 = (t * t + 2.0 * t - 1.0) / den
    a2 = u * u / den
    a3 = u / (2.0 * (2.0 * t - 1.0))
    b1 = u * u * (t * t - 4.0 * t + 1.0) / (8.0 * t**3 * (2.0 * t - 1.0))
    b2 = u**3 / (4.0 * t * t * (2.0 * t - 1.0))
    b3 = u * u * (t * t + 2.0 * t - 1.0) / (8.0 * t**3 * (2.0 * t - 1.0))
    b3 = b3 + tau.source_weight / (t * t)
    conj = np.conj(tt)
    s_a = np.einsum("ikr,ilr->kl", tt, conj)
    s_c = np.einsum("irl,irk->kl", tt, conj)
    x = np.einsum("krl,r->kl", tt, np.conj(np.einsum("iri->r", tt)))
    return (a1 * trace2 + a2 * trace1 + a3 * (trace3 + trace4)
            + b1 * s_a + b2 * 0.5 * (x + x.conj().T) + b3 * s_c)


def oracle_rbc_tau(tt, tr, t, xi, tau):
    norm2 = float(np.real(np.sum(xi * np.conj(xi))))
    c1 = t / (2.0 * t - 1.0)
    c2 = (t - 1.0) / (2.0 * t - 1.0)
    u = t - 1.0
    d1 = -(u * u / (4.0 * t * t * (2.0 * t - 1.0)) + tau.target_weight / (t * t))
    d2 = u * u / (4.0 * t * (2.0 * t - 1.0))
    d3 = u**3 / (4.0 * t * t * (2.0 * t - 1.0))
    conj = np.conj(tt)
    rb = np.einsum("ijkl,ij,kl->", tr, xi, xi)
    rb_alt = np.einsum("ilkj,ij,kl->", tr, xi, xi)
    s1 = np.einsum("ikr,jlr,ij,kl->", tt, conj, xi, xi)
    s2 = np.einsum("irl,jrk,ij,kl->", tt, conj, xi, xi)
    s3 = np.einsum("irj,lrk,ij,kl->", tt, conj, xi, xi)
    value = rb.real * c1 + rb_alt.real * c2 + s1.real * d1 + s2.real * d2 + s3.real * d3
    return value / norm2


def oracle_stacks():
    rng = np.random.default_rng(2024)
    a = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    specs = {"F1": fixture("F1"), "F3": fixture("F3"), "hopf(3)": hopf(3),
             "example22(3)": example22(3, a - np.swapaxes(a, 0, 1), 0.1)}
    for name, spec in specs.items():
        points = spec.region.sample_points(spec.n, rng, 6).reshape(2, 3, spec.n)
        shape = (2, 3, spec.n, spec.n)
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        forms = raw @ np.conj(np.swapaxes(raw, -2, -1))
        yield name, ChernPoint.from_spec(spec, points), forms


def point_at(point, idx):
    """The one-point ChernPoint on the jet at index ``idx`` of a stacked one."""
    return ChernPoint(*(getattr(point, f.name)[idx] for f in dataclasses.fields(point)))


class TestStackOracle:
    """Every function takes stacks: bit for bit against the oracle, or row by row."""

    def test_stacks_against_the_per_point_oracle(self):
        worst = 0.0

        def close(batched, single, label):
            nonlocal worst
            batched, single = np.asarray(batched), np.asarray(single)
            assert batched.shape == single.shape, label
            gap = np.abs(batched - single) / np.maximum(1.0, np.abs(single))
            worst = max(worst, float(np.max(gap, initial=0.0)))
            assert np.all(gap <= 1e-13), label

        source_taus = [TauParam(v, "source") for v in (0.3, 1.0, 2.5, math.inf)]
        target_taus = [TauParam(v, "target") for v in (0.0, 1.0, 2.0)]
        for name, stacked, forms in oracle_stacks():
            for t in PARAMS + (1.0,):
                member = gauduchon_family(stacked, t)
                want_t, want_r = oracle_family(stacked.torsion_frame, stacked.curvature_frame, t)
                assert np.array_equal(member.torsion, want_t), (name, t)
                assert np.array_equal(member.curvature, want_r), (name, t)
                back_t, back_r = chern_from_family(member)
                want_t, want_r = oracle_inverse(member.torsion, member.curvature, t)
                assert np.array_equal(back_t, want_t), (name, t)
                assert np.array_equal(back_r, want_r), (name, t)

                traces = frame_traces(member.curvature)
                rics = [ric_tau_from_family(member, tau) for tau in source_taus]
                rbcs = [rbc_tau_from_family(member, forms, tau) for tau in target_taus]
                for idx in np.ndindex(2, 3):
                    single = ConnectionTensors(t, member.torsion[idx], member.curvature[idx])
                    for got, want in zip(traces, frame_traces(single.curvature)):
                        close(got[idx], want, (name, t, idx, "traces"))
                    for got, want in zip(traces, oracle_traces(single.curvature)):
                        close(got[idx], want, (name, t, idx, "oracle traces"))
                    for got, tau in zip(rics, source_taus):
                        want = ric_tau_from_family(single, tau)
                        close(got[idx], want, (name, t, idx, "ric"))
                        oracle = oracle_ric_tau(single.torsion, single.curvature, t, tau)
                        assert np.max(np.abs(want - oracle)) <= 1e-12 * max(
                            1.0, float(np.max(np.abs(oracle)))), (name, t, idx, "ric oracle")
                    for got, tau in zip(rbcs, target_taus):
                        want = rbc_tau_from_family(single, forms[idx], tau)
                        close(got[idx], want, (name, t, idx, "rbc"))
                        oracle = oracle_rbc_tau(single.torsion, single.curvature, t,
                                                forms[idx], tau)
                        assert abs(want - oracle) <= 1e-12 * max(1.0, abs(oracle)), (
                            name, t, idx, "rbc oracle")
            for tau in source_taus:
                frame = ric_tau_frame(stacked, tau)
                for idx in np.ndindex(2, 3):
                    close(frame[idx], ric_tau_frame(point_at(stacked, idx), tau), (name, tau))
        print(f"\nfamily and inverse bit-identical to the oracle; largest row difference of "
              f"stacked traces and displays against one-point calls {worst:.2e} (tol 1e-13)")


def test_a_roundtrip_forms_the_chern_torsion_products_once(monkeypatch):
    """Three members share the record's t-independent terms: one TTA and one TTB of ``T``."""
    frames, formed = [], {"torsion_product_a": 0, "torsion_product_b": 0}
    move = UnitaryFrame.torsion_to_frame

    def recorded(self, torsion):
        frames.append(move(self, torsion))
        return frames[-1]

    monkeypatch.setattr(UnitaryFrame, "torsion_to_frame", recorded)
    for module in (chern, gauduchon):
        for name in formed:
            def counted(torsion, *rest, name=name, form=getattr(module, name)):
                formed[name] += any(torsion is frame for frame in frames)
                return form(torsion, *rest)

            monkeypatch.setattr(module, name, counted)
    argv = ["gauduchon", "--metric", "builtin:hopf(2)", "--region", "5", "--t=-1,0.25,2",
            "--roundtrip"]
    assert main(argv) == 0
    assert len(frames) == 1
    assert formed == {"torsion_product_a": 1, "torsion_product_b": 1}
