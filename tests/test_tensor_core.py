"""Unit tests for tensor_core: metric inverses, frames, projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.errors import NumericalError
from curvlab.tensor_core import (
    PSDForm,
    UnitaryFrame,
    cholesky_factor,
    hermitian_part,
    metric_inverse_up,
    psd_project,
    psd_project_batch,
)


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * hermitian_part(m)


def random_metric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m @ m.conj().T + np.eye(n)


class TestMetricInverse:
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_contracts_to_identity_both_ways(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_metric(rng, n)
        x = metric_inverse_up(g)
        first = np.einsum("pq,kq->pk", x, g)
        second = np.einsum("pq,pl->ql", x, g)
        assert np.allclose(first, np.eye(n), atol=1e-10), f"holo trace failed: {first}"
        assert np.allclose(second, np.eye(n), atol=1e-10), f"anti trace failed: {second}"

    def test_singular_metric_raises(self):
        with pytest.raises(NumericalError, match="singular"):
            metric_inverse_up(np.zeros((2, 2)))


def random_tensor(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def chart_from_frame(frame: UnitaryFrame, torsion: np.ndarray, curvature: np.ndarray):
    """The inverse slot patterns: ``L, L, inv(L).T`` and ``L, conj L, L, conj L``."""
    l, lc, up = frame.L, np.conj(frame.L), frame.L_inv.T
    t = np.einsum("ia,jb,kc,abc->ijk", l, l, up, torsion)
    r = np.einsum("ia,jb,kc,ld,abcd->ijkl", l, lc, l, lc, curvature)
    return t, r


def frame_of(g: np.ndarray) -> UnitaryFrame:
    return UnitaryFrame.from_factor(cholesky_factor(g))


class TestUnitaryFrame:
    def test_metric_becomes_identity(self):
        rng = np.random.default_rng(3)
        g = random_metric(rng, 3)
        frame = frame_of(g)
        # the metric's two lower slots take inv(L) and conj(inv(L))
        hat = frame.L_inv @ g @ frame.L_inv.conj().T
        assert np.allclose(hat, np.eye(3), atol=1e-12)
        assert np.allclose(frame.L @ frame.L_inv, np.eye(3), atol=1e-12)

    def test_scaled_identity_metric(self):
        # g = 4 I: L = 2 I, so lower slots halve and the upper slot doubles
        frame = frame_of(4.0 * np.eye(2, dtype=complex))
        rng = np.random.default_rng(5)
        t = random_tensor(rng, (2, 2, 2))
        r = random_tensor(rng, (2, 2, 2, 2))
        t_frame, r_frame = frame.torsion_to_frame(t), frame.curvature_to_frame(r)
        assert np.allclose(t_frame, 0.5 * t, atol=1e-14)
        assert np.allclose(r_frame, r / 16.0, atol=1e-14)

    def test_non_pd_metric_raises(self):
        # a metric with no Cholesky factor has no frame
        with pytest.raises(NumericalError, match="positive definite"):
            cholesky_factor(np.diag([1.0, -1.0]).astype(complex))
        stack = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
        with pytest.raises(NumericalError, match="positive definite"):
            cholesky_factor(stack)

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_rank4(self, seed, n):
        rng = np.random.default_rng(seed)
        frame = frame_of(random_metric(rng, n))
        t = random_tensor(rng, (n,) * 3)
        r = random_tensor(rng, (n,) * 4)
        t_back, r_back = chart_from_frame(frame, frame.torsion_to_frame(t),
                                          frame.curvature_to_frame(r))
        residual = max(np.max(np.abs(t_back - t)), np.max(np.abs(r_back - r)))
        assert residual < 1e-10, f"round trip residual {residual:.3e}"

    def test_raising_commutes_with_frame_change(self):
        # X in the frame must be the identity: raising indices then moving to
        # the frame agrees with moving to the frame and raising with delta.
        # X's upper slots take L.T and conj(L.T).
        rng = np.random.default_rng(7)
        g = random_metric(rng, 3)
        frame = frame_of(g)
        hat = frame.L.T @ metric_inverse_up(g) @ np.conj(frame.L)
        assert np.allclose(hat, np.eye(3), atol=1e-10)
        # so lowering the frame torsion's upper slot with delta equals
        # lowering in the chart with g and then moving every slot to the frame
        t = random_tensor(rng, (3, 3, 3))
        t_frame = frame.torsion_to_frame(t)
        lowered = np.einsum("ijm,ml->ijl", t, g)
        a, b = frame.L_inv, np.conj(frame.L_inv)
        want = np.einsum("ai,bj,cl,ijl->abc", a, a, b, lowered)
        assert np.allclose(t_frame, want, atol=1e-10)

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_batched_frame_equals_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        g = np.stack([random_metric(rng, n) for _ in range(6)]).reshape(2, 3, n, n)
        t = random_tensor(rng, (2, 3) + (n,) * 3)
        r = random_tensor(rng, (2, 3) + (n,) * 4)
        frame = frame_of(g)
        t_frame, r_frame = frame.torsion_to_frame(t), frame.curvature_to_frame(r)
        for idx in np.ndindex(2, 3):
            one = frame_of(g[idx])
            assert np.array_equal(frame.L[idx], one.L)
            assert np.array_equal(frame.L_inv[idx], one.L_inv)
            t_one, r_one = one.torsion_to_frame(t[idx]), one.curvature_to_frame(r[idx])
            assert np.max(np.abs(t_frame[idx] - t_one)) <= 1e-13 * np.max(np.abs(t_one))
            assert np.max(np.abs(r_frame[idx] - r_one)) <= 1e-13 * np.max(np.abs(r_one))

    def test_to_frame_moves_both(self):
        rng = np.random.default_rng(13)
        frame = frame_of(random_metric(rng, 2))
        t = random_tensor(rng, (2, 2, 2))
        r = random_tensor(rng, (2, 2, 2, 2))
        t_frame, r_frame = frame.to_frame(t, r)
        assert t_frame.tobytes() == frame.torsion_to_frame(t).tobytes()
        assert r_frame.tobytes() == frame.curvature_to_frame(r).tobytes()


class TestPSD:
    def test_psd_project_idempotent_on_psd(self):
        rng = np.random.default_rng(11)
        m = random_metric(rng, 3)
        m = m / np.linalg.norm(m)
        form = psd_project(m)
        assert np.allclose(form.entries, m, atol=1e-12)

    def test_psd_project_clips_negative_part(self):
        form = psd_project(np.diag([1.0, -5.0]).astype(complex))
        assert np.allclose(form.entries, np.diag([1.0, 0.0]))

    def test_zero_matrix_rejected(self):
        with pytest.raises(NumericalError, match="zero"):
            psd_project(np.diag([-1.0, -2.0]).astype(complex))

    def test_rank_one_normalisation(self):
        # the unit form zeta zeta^H / |zeta|^2 passes the form checks, and
        # projecting the unnormalised zeta zeta^H gives it back
        zeta = np.array([3.0, 4.0j])
        outer = np.outer(zeta, np.conj(zeta))
        form = PSDForm(outer / np.vdot(zeta, zeta).real)
        assert np.allclose(psd_project(outer).entries, form.entries, atol=1e-15)
        assert np.linalg.norm(form.entries) == pytest.approx(1.0)
        eigs = np.linalg.eigvalsh(form.entries)
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)
        assert eigs[-1] == pytest.approx(1.0)

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_projection_output_is_valid_form(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        # a draw whose Hermitian part is negative semidefinite has nothing
        # to project onto; the contract is to refuse, not to return zero
        if np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1] <= 0:
            with pytest.raises(NumericalError):
                psd_project(m)
            return
        form = psd_project(m)
        assert form.n == 3


def loop_projection(m):
    """The one-matrix projection: Hermitise, clip, renormalise; None if collapsed."""
    eigs, vecs = np.linalg.eigh(hermitian_part(m))
    clipped = (vecs * np.clip(eigs, 0.0, None)) @ vecs.conj().T
    norm = float(np.linalg.norm(clipped))
    return None if norm <= 0.0 else hermitian_part(clipped / norm)


class TestPSDBatch:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=3),
        batch=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_and_masks_collapse(self, seed, n, batch):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(batch, n, n)) + 1j * rng.normal(size=(batch, n, n))
        # rank-deficient positive parts, and some with none at all
        for i in range(batch):
            signs = rng.choice([-1.0, 0.0, 1.0], size=n)
            q, _ = np.linalg.qr(m[i])
            m[i] = (q * signs) @ q.conj().T
        entries, ok = psd_project_batch(m)
        for i in range(batch):
            want = loop_projection(m[i])
            assert ok[i] == (want is not None)
            if want is None:
                assert not np.any(entries[i])
                with pytest.raises(NumericalError, match="zero"):
                    psd_project(m[i])
            else:
                assert np.max(np.abs(entries[i] - want)) <= 1e-13
                PSDForm(entries[i])

    def test_non_finite_input_rejected(self):
        m = np.stack([np.eye(2, dtype=complex), np.full((2, 2), np.nan, dtype=complex)])
        with pytest.raises(NumericalError):
            psd_project_batch(m)
        with pytest.raises(NumericalError):
            psd_project(m[1])


def einsum_torsion_to_frame(frame: UnitaryFrame, torsion: np.ndarray) -> np.ndarray:
    """The torsion frame change as an einsum chain on the stack as given."""
    a = frame.L_inv
    t = np.einsum("...ai,...ijk->...ajk", a, torsion)
    t = np.einsum("...bj,...ajk->...abk", a, t)
    return np.einsum("...kc,...abk->...abc", frame.L, t)


def einsum_curvature_to_frame(frame: UnitaryFrame, curvature: np.ndarray) -> np.ndarray:
    """The curvature frame change as an einsum chain on the stack as given."""
    a = frame.L_inv
    b = np.conj(a)
    r = np.einsum("...ai,...ijkl->...ajkl", a, curvature)
    r = np.einsum("...bj,...ajkl->...abkl", b, r)
    r = np.einsum("...ck,...abkl->...abcl", a, r)
    return np.einsum("...dl,...abcl->...abcd", b, r)


# signed zeros, subnormals and entries near 1e±300, whose products overflow,
# underflow or cancel exactly
EXTREMES = np.array([0.0, -0.0, 1e300, -2.5e299, 1e-300, -3e-301, 5e-324, 1.5, -0.75, 0.1])


class TestStackedFrameChanges:
    """On a stack the frame changes run points-last and give the einsum chain's bytes."""

    @staticmethod
    def draw(rng, batch, *core):
        shape = batch + core
        return rng.choice(EXTREMES, shape) + 1j * rng.choice(EXTREMES, shape)

    def assert_chain_bytes(self, frame, torsion, curvature):
        with np.errstate(all="ignore"):
            pairs = [(frame.torsion_to_frame(torsion), einsum_torsion_to_frame(frame, torsion)),
                     (frame.curvature_to_frame(curvature),
                      einsum_curvature_to_frame(frame, curvature))]
        for got, want in pairs:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("points", [1, 2, 81, 625])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacks_give_the_einsum_chain_bytes(self, points, n):
        rng = np.random.default_rng([points, n])
        for _ in range(4):
            frame = UnitaryFrame(self.draw(rng, (points,), n, n), self.draw(rng, (points,), n, n))
            self.assert_chain_bytes(frame, self.draw(rng, (points,), n, n, n),
                                    self.draw(rng, (points,), n, n, n, n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_point_and_broadcast_stacks_give_the_einsum_chain_bytes(self, n):
        rng = np.random.default_rng(n)
        for frame_batch, tensor_batch in [((), ()), ((5,), ()), ((5,), (1,)), ((1,), (4, 1)),
                                          ((3, 1), (3, 4))]:
            frame = UnitaryFrame(self.draw(rng, frame_batch, n, n),
                                 self.draw(rng, frame_batch, n, n))
            self.assert_chain_bytes(frame, self.draw(rng, tensor_batch, n, n, n),
                                    self.draw(rng, tensor_batch, n, n, n, n))

    @pytest.mark.parametrize("batch, n", [((), 2), ((1,), 3), ((7,), 1)])
    def test_one_point_and_n_1_call_einsum_directly(self, batch, n, monkeypatch):
        calls = []
        einsum = np.einsum

        def recorded(subscripts, *arrays, **kwargs):
            calls.append(subscripts)
            return einsum(subscripts, *arrays, **kwargs)

        monkeypatch.setattr(np, "einsum", recorded)
        frame = UnitaryFrame(np.ones(batch + (n, n), complex), np.ones(batch + (n, n), complex))
        frame.torsion_to_frame(np.ones(batch + (n,) * 3, complex))
        frame.curvature_to_frame(np.ones(batch + (n,) * 4, complex))
        assert len(calls) == 7 and all(s.startswith("...") for s in calls)
