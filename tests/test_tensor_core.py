"""Unit tests for tensor_core: contraction rules, frames, projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvlab.errors import ConfigError, NumericalError
from curvlab.tensor_core import (
    ComplexTensor,
    HermitianMatrix,
    PSDForm,
    UnitaryFrame,
    Variance,
    conjugate,
    contract,
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


class TestContract:
    def test_identity_contraction(self):
        g = ComplexTensor(2.0 * np.eye(2), (Variance.HOLO_DOWN, Variance.ANTI_DOWN))
        x = ComplexTensor(
            metric_inverse_up(g.entries), (Variance.HOLO_UP, Variance.ANTI_UP)
        )
        out = contract(x, g, [(0, 0)])
        assert out.slots == (Variance.ANTI_UP, Variance.ANTI_DOWN)
        assert np.allclose(out.entries, np.eye(2))

    def test_variance_mismatch_rejected(self):
        a = ComplexTensor(np.eye(2), (Variance.HOLO_UP, Variance.ANTI_UP))
        b = ComplexTensor(np.eye(2), (Variance.HOLO_UP, Variance.ANTI_UP))
        with pytest.raises(ConfigError, match="variance"):
            contract(a, b, [(0, 0)])
        with pytest.raises(ConfigError, match="variance"):
            contract(a, b, [(0, 1)])

    def test_dimension_mismatch_rejected(self):
        a = ComplexTensor(np.zeros((2, 2)), (Variance.HOLO_UP, Variance.ANTI_UP))
        b = ComplexTensor(np.zeros((3, 3)), (Variance.HOLO_DOWN, Variance.ANTI_DOWN))
        with pytest.raises(ConfigError, match="dimension"):
            contract(a, b, [(0, 0)])

    def test_matches_einsum_on_rank3(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a = ComplexTensor(
            t, (Variance.HOLO_DOWN, Variance.HOLO_DOWN, Variance.HOLO_UP)
        )
        b = ComplexTensor(x, (Variance.HOLO_DOWN, Variance.ANTI_DOWN))
        out = contract(a, b, [(2, 0)])
        assert out.slots == (
            Variance.HOLO_DOWN,
            Variance.HOLO_DOWN,
            Variance.ANTI_DOWN,
        )
        assert np.allclose(out.entries, np.einsum("ijk,kl->ijl", t, x))


class TestConjugate:
    def test_slots_flip(self):
        a = ComplexTensor(
            np.array([[1 + 2j, 0], [0, 1]]), (Variance.HOLO_DOWN, Variance.ANTI_UP)
        )
        c = conjugate(a)
        assert c.slots == (Variance.ANTI_DOWN, Variance.HOLO_UP)
        assert np.allclose(c.entries, np.conj(a.entries))


class TestHermitianMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ConfigError, match="Hermitian"):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigenvalue_helpers(self):
        m = HermitianMatrix(np.diag([3.0, 1.0]).astype(complex))
        assert m.min_eigenvalue() == pytest.approx(1.0)
        assert m.is_positive_definite()


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


class TestUnitaryFrame:
    def test_metric_becomes_identity(self):
        rng = np.random.default_rng(3)
        g = random_metric(rng, 3)
        frame = UnitaryFrame.from_metric(g)
        gt = ComplexTensor(g, (Variance.HOLO_DOWN, Variance.ANTI_DOWN))
        hat = frame.to_frame(gt)
        assert np.allclose(hat.entries, np.eye(3), atol=1e-12)

    def test_scaled_identity_metric(self):
        g = 4.0 * np.eye(2, dtype=complex)
        frame = UnitaryFrame.from_metric(g)
        v = ComplexTensor(np.array([1.0, 0.0]), (Variance.HOLO_DOWN,))
        hat = frame.to_frame(v)
        assert np.allclose(hat.entries, [0.5, 0.0])

    def test_non_pd_metric_raises(self):
        with pytest.raises(NumericalError, match="positive definite"):
            UnitaryFrame.from_metric(np.diag([1.0, -1.0]).astype(complex))

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_rank4(self, seed):
        rng = np.random.default_rng(seed)
        n = 2
        g = random_metric(rng, n)
        frame = UnitaryFrame.from_metric(g)
        entries = rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4)
        t = ComplexTensor(
            entries,
            (
                Variance.HOLO_DOWN,
                Variance.ANTI_DOWN,
                Variance.HOLO_UP,
                Variance.ANTI_UP,
            ),
        )
        back = frame.to_chart(frame.to_frame(t))
        residual = np.max(np.abs(back.entries - t.entries))
        assert residual < 1e-10, f"round trip residual {residual:.3e}"

    def test_raising_commutes_with_frame_change(self):
        # X in the frame must be the identity: raising indices then moving to
        # the frame agrees with moving to the frame and raising with delta.
        rng = np.random.default_rng(7)
        g = random_metric(rng, 3)
        frame = UnitaryFrame.from_metric(g)
        x = ComplexTensor(metric_inverse_up(g), (Variance.HOLO_UP, Variance.ANTI_UP))
        hat = frame.to_frame(x)
        assert np.allclose(hat.entries, np.eye(3), atol=1e-10)


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
        zeta = np.array([3.0, 4.0j])
        form = PSDForm.rank_one(zeta)
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
