import warnings

import numpy as np
import pytest
import scipy.linalg

from spinkin.linalg import (
    AntiLinearMap,
    expm_hermitian,
    expm_i_hermitian,
    nullspace,
    stack_norm,
)

THETA = np.array([[0, -1], [1, 0]], dtype=complex)


def squared(A: AntiLinearMap) -> np.ndarray:
    """The linear map A o A, with matrix M conj(M)."""
    return A.matrix @ np.conj(A.matrix)


def hermitian_2x2(rng, shape=(), max_norm=None) -> np.ndarray:
    """Seeded Hermitian 2x2 matrices of stack shape `shape`; with max_norm,
    each is rescaled to a Frobenius norm uniform in [0, max_norm)."""
    X = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    H = X + X.conj().swapaxes(-1, -2)
    if max_norm is not None:
        H *= (rng.uniform(0.0, max_norm, size=shape) / np.linalg.norm(H, axis=(-2, -1)))[..., None, None]
    return H


class TestHermitianExpm:
    def test_matches_generic(self, rng):
        H = hermitian_2x2(rng)
        assert np.allclose(expm_hermitian(H), scipy.linalg.expm(H), rtol=1e-12, atol=1e-12)
        U = expm_i_hermitian(H)
        assert np.allclose(U, scipy.linalg.expm(1j * H), rtol=1e-12, atol=1e-12)
        assert np.allclose(U @ U.conj().T, np.eye(2), atol=1e-13)

    def test_seeded_stack_matches_scipy(self, rng):
        """The closed forms against scipy's Pade expm, up to ||H||_F = 30
        (eigenvalues up to 21, exp(H) up to 1e9): within 1e-13 relative."""
        H = hermitian_2x2(rng, (400,), max_norm=30.0)
        for f, ref in ((expm_hermitian, scipy.linalg.expm), (expm_i_hermitian, lambda h: scipy.linalg.expm(1j * h))):
            got = f(H)
            want = np.array([ref(h) for h in H])
            err = np.linalg.norm(got - want, axis=(-2, -1)) / np.linalg.norm(want, axis=(-2, -1))
            assert err.max() <= 1e-13

    def test_zero_b_exact(self):
        """At |b| = 0 the closed forms take sinh|b|/|b| = sin|b|/|b| = 1:
        exp(a I) = e^a I and exp(i a I) = e^{ia} I exactly, with no nan."""
        for a in (0.0, 1.5, -2.25):
            H = a * np.eye(2, dtype=complex)
            assert np.array_equal(expm_hermitian(H), np.exp(a) * np.eye(2))
            assert np.array_equal(expm_i_hermitian(H), np.exp(1j * a) * np.eye(2))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (5, 3, 3), (2,)])
    def test_rejects_non_2x2(self, shape):
        for f in (expm_hermitian, expm_i_hermitian):
            with pytest.raises(ValueError, match="2x2"):
                f(np.zeros(shape))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "H",
        [
            np.zeros((2, 3)),  # not square
            np.array([[np.nan, 0.0], [0.0, 0.0]]),  # not finite
            np.diag([1000.0, -1000.0]),  # exp overflows
            np.diag([-2000.0, 0.0]),  # cosh|b| overflows, though exp(H) = diag(0, 1)
            np.diag([1e200, 1e200]),  # the norm overflows
        ],
    )
    def test_rejects_bad_input(self, H):
        with pytest.raises(ValueError):
            expm_hermitian(H)


    def test_transposed_view_accepted(self, rng):
        H = hermitian_2x2(rng)
        assert np.array_equal(expm_hermitian(H.T), expm_hermitian(H.T.copy()))

    @pytest.mark.parametrize("shape", [(6,), (150,), (3, 50)])
    def test_stack_equals_each_matrix(self, rng, shape):
        H = hermitian_2x2(rng, shape)
        for f in (expm_hermitian, expm_i_hermitian):
            stacked = f(H)
            assert stacked.shape == H.shape
            assert all(np.array_equal(stacked[k], f(H[k])) for k in np.ndindex(shape))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_empty_stack(self, shape):
        for f in (expm_hermitian, expm_i_hermitian):
            assert f(np.zeros(shape + (2, 2))).shape == shape + (2, 2)
        assert stack_norm(np.zeros(shape + (3, 3)), 2).shape == shape
        assert stack_norm(np.zeros(shape + (3,)), 1).shape == shape

    @pytest.mark.parametrize("bad", [np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([np.nan, 0.0]), np.diag([1000.0, 0.0])])
    @pytest.mark.parametrize("where", [1, 140])
    def test_stack_with_one_bad_matrix_rejected(self, bad, where):
        stack = np.array([np.eye(2)] * 150)
        stack[where] = bad
        with pytest.raises(ValueError):
            expm_hermitian(stack)

class TestStackNorm:
    """stack_norm is np.linalg.norm bit for bit in the float range, and
    right where the squares underflow."""

    @pytest.mark.parametrize("x", [[1e-200, 1e-200], [1e-200j, 1e-200j], [1e-310, -1e-310], [5e-324, 0.0]])
    def test_tiny_entries(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stack_norm(np.array(x), 1)
        want = np.sqrt(2.0) * abs(x[0]) if x[1] else abs(x[0])
        assert type(got) is np.float64 and got == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("ndim", [1, 2])
    def test_one_tiny_entry_leaves_the_others_bit_identical(self, rng, ndim):
        x = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        x = x.reshape(6, 9) if ndim == 1 else x
        want = np.array([np.linalg.norm(row) for row in x])
        x[2] *= 1e-170
        x[4] = 0.0
        x[5, 0] = np.nan
        got = stack_norm(x, ndim)
        keep = [0, 1, 3]
        assert np.array_equal(got[keep], want[keep])
        assert got[2] == pytest.approx(want[2] * 1e-170, rel=1e-14, abs=0.0)
        assert got[4] == 0.0 and np.isnan(got[5])


class TestNullspace:
    def test_invertible_gives_empty(self):
        assert nullspace(np.eye(3)).shape == (3, 0)

    def test_zero_map_gives_full(self):
        ns = nullspace(np.zeros((4, 4)))
        assert ns.shape == (4, 4)
        assert np.allclose(ns.conj().T @ ns, np.eye(4), atol=1e-14)

    def test_coordinate_kernel(self):
        ns = nullspace(np.diag([1.0, 0.0]))
        assert ns.shape == (2, 1)
        assert np.allclose(np.abs(ns[:, 0]), [0.0, 1.0], atol=1e-14)

    def test_residual_property(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n))
            A = rng.normal(size=(n, r)) @ rng.normal(size=(r, n))
            ns = nullspace(A)
            assert ns.shape[1] == n - r
            for k in range(ns.shape[1]):
                assert np.linalg.norm(A @ ns[:, k]) <= 10 * 1e-10 * np.linalg.norm(A)


class TestAntiLinearMap:
    def test_plain_conjugation_squares_to_identity(self):
        K = AntiLinearMap(np.eye(2, dtype=complex))
        assert np.allclose(squared(K), np.eye(2))
        psi = np.array([1.0 + 2.0j, -0.5j])
        assert np.array_equal(K(K(psi)), psi)

    def test_i_times_identity(self):
        A = AntiLinearMap(1j * np.eye(2))
        assert np.allclose(squared(A), np.eye(2))

    def test_block_theta_composition(self, rng):
        a, b = 1.3 - 0.4j, -0.7 + 2.1j
        Z = np.zeros((2, 2), dtype=complex)
        M = np.block([[a * THETA, Z], [Z, b * THETA]])
        A = AntiLinearMap(M)
        expected = -np.diag([abs(a) ** 2, abs(a) ** 2, abs(b) ** 2, abs(b) ** 2])
        assert np.allclose(squared(A), expected, atol=1e-14)

    def test_antilinearity(self, rng):
        A = AntiLinearMap(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        c = 0.3 - 1.7j
        assert np.allclose(A(c * psi), np.conj(c) * A(psi))

    def test_compose_twice_equals_iterated_action(self, rng):
        A = AntiLinearMap(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        A2 = squared(A)          # linear
        A4 = A2 @ A2
        for _ in range(5):
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert np.allclose(A4 @ psi, A(A(A(A(psi)))), rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("shape", [(4,), (3,), (2, 5)])
    def test_stacked_call_equals_row_calls(self, rng, shape):
        """A stack (..., n) of spinors maps spinor by spinor; a (4, 4) stack
        is not read as one matrix."""
        A = AntiLinearMap(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        psi = rng.normal(size=shape + (4,)) + 1j * rng.normal(size=shape + (4,))
        got = A(psi)
        assert got.shape == psi.shape
        for k in np.ndindex(shape):
            assert np.array_equal(got[k], A(psi[k]))
            assert np.allclose(got[k], A.matrix @ np.conj(psi[k]), rtol=1e-14, atol=1e-14)

