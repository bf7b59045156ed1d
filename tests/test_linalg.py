import json

import numpy as np
import pytest
import scipy.linalg

from spinkin.linalg import (
    AntiLinearMap,
    antilinear_compose,
    expm_hermitian,
    expm_i_hermitian,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    stack_norm,
)

THETA = np.array([[0, -1], [1, 0]], dtype=complex)


class TestHermitianExpm:
    def test_matches_generic(self, rng):
        H = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        H = H + H.conj().T
        assert np.allclose(expm_hermitian(H), scipy.linalg.expm(H), rtol=1e-12, atol=1e-12)
        U = expm_i_hermitian(H)
        assert np.allclose(U @ U.conj().T, np.eye(5), atol=1e-13)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "H",
        [
            np.zeros((2, 3)),  # not square
            np.array([[np.nan, 0.0], [0.0, 0.0]]),  # not finite
            np.diag([1000.0, -1000.0]),  # exp overflows
        ],
    )
    def test_rejects_bad_input(self, H):
        with pytest.raises(ValueError):
            expm_hermitian(H)


    def test_transposed_view_accepted(self, rng):
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = H + H.conj().T
        assert np.array_equal(expm_hermitian(H.T), expm_hermitian(H.T.copy()))

    @pytest.mark.parametrize("shape", [(6,), (150,), (3, 50)])
    def test_stack_equals_each_matrix(self, rng, shape):
        H = rng.normal(size=shape + (3, 3)) + 1j * rng.normal(size=shape + (3, 3))
        H = H + H.conj().swapaxes(-1, -2)
        for f in (expm_hermitian, expm_i_hermitian):
            stacked = f(H)
            assert stacked.shape == H.shape
            assert all(np.array_equal(stacked[k], f(H[k])) for k in np.ndindex(shape))

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_empty_stack(self, shape):
        for f in (expm_hermitian, expm_i_hermitian):
            assert f(np.zeros(shape + (3, 3))).shape == shape + (3, 3)
        assert stack_norm(np.zeros(shape + (3, 3)), 2).shape == shape
        assert stack_norm(np.zeros(shape + (3,)), 1).shape == shape

    @pytest.mark.parametrize("bad", [np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([np.nan, 0.0]), np.diag([1000.0, 0.0])])
    @pytest.mark.parametrize("where", [1, 140])
    def test_stack_with_one_bad_matrix_rejected(self, bad, where):
        stack = np.array([np.eye(2)] * 150)
        stack[where] = bad
        with pytest.raises(ValueError):
            expm_hermitian(stack)


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
            ns = nullspace(A, tol=1e-10)
            assert ns.shape[1] == n - r
            for k in range(ns.shape[1]):
                assert np.linalg.norm(A @ ns[:, k]) <= 10 * 1e-10 * np.linalg.norm(A)


class TestAntiLinearMap:
    def test_plain_conjugation_squares_to_identity(self):
        K = AntiLinearMap(np.eye(2, dtype=complex))
        assert np.allclose(antilinear_compose(K, K), np.eye(2))

    def test_i_times_identity(self):
        A = AntiLinearMap(1j * np.eye(2))
        assert np.allclose(antilinear_compose(A, A), np.eye(2))

    def test_block_theta_composition(self, rng):
        a, b = 1.3 - 0.4j, -0.7 + 2.1j
        Z = np.zeros((2, 2), dtype=complex)
        M = np.block([[a * THETA, Z], [Z, b * THETA]])
        A = AntiLinearMap(M)
        expected = -np.diag([abs(a) ** 2, abs(a) ** 2, abs(b) ** 2, abs(b) ** 2])
        assert np.allclose(A.squared(), expected, atol=1e-14)

    def test_antilinearity(self, rng):
        A = AntiLinearMap(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        c = 0.3 - 1.7j
        assert np.allclose(A(c * psi), np.conj(c) * A(psi))

    def test_compose_twice_equals_iterated_action(self, rng):
        A = AntiLinearMap(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        A2 = A.squared()          # linear
        A4 = A2 @ A2
        for _ in range(5):
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert np.allclose(A4 @ psi, A(A(A(A(psi)))), rtol=1e-10, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            antilinear_compose(AntiLinearMap(np.eye(2)), AntiLinearMap(np.eye(3)))


class TestMatrixJson:
    def test_round_trip_bit_exact(self, rng):
        raw = rng.normal(size=(5, 5)) * np.exp(rng.uniform(-300, 300, size=(5, 5)))
        M = raw + 1j * rng.normal(size=(5, 5)) * np.exp(rng.uniform(-300, 300, size=(5, 5)))
        text = json.dumps(matrix_to_json(M))
        back = matrix_from_json(json.loads(text))
        assert back.shape == M.shape
        assert np.array_equal(back, M)  # bit-exact, no tolerance

    def test_schema_fields(self):
        obj = matrix_to_json(np.eye(2))
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"][0] == [1.0, 0.0] and obj["data"][1] == [0.0, 0.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
