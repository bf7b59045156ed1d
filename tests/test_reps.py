import numpy as np
import pytest

from spinkin.linalg import anticommutator, commutator
from spinkin.reps import (
    HalfInt,
    LorentzTransform,
    RepGenerators,
    pauli_matrices,
    rep_generators,
    spin_matrices,
    tensor_rep_generators,
    vector_boost,
    vector_rotation,
)

ABS_TOL = 1e-10


class TestHalfInt:
    def test_basics(self):
        j = HalfInt(3)
        assert j.j == 1.5
        assert j.block_dim == 4
        assert j.dim == 8
        assert str(j) == "3/2"
        assert str(HalfInt(2)) == "1"

    @pytest.mark.parametrize("value,twice", [(0.5, 1), (1, 2), ("3/2", 3), ("2", 4), (HalfInt(1), 1)])
    def test_coerce(self, value, twice):
        assert HalfInt.coerce(value).twice == twice

    def test_rejects_non_half_integer(self):
        with pytest.raises(ValueError):
            HalfInt.coerce(0.3)
        with pytest.raises(ValueError):
            HalfInt(0)


class TestSpinMatrices:
    def test_half_gives_pauli_over_two(self):
        Jx, Jy, Jz = spin_matrices(HalfInt(1))
        sx, sy, sz = pauli_matrices()
        assert np.allclose(Jx, sx / 2) and np.allclose(Jy, sy / 2) and np.allclose(Jz, sz / 2)

    def test_spin_one_jz(self):
        _, _, Jz = spin_matrices(HalfInt(2))
        assert np.allclose(Jz, np.diag([1.0, 0.0, -1.0]))

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_commutation_and_hermiticity(self, twice):
        J = spin_matrices(HalfInt(twice))
        assert np.linalg.norm(commutator(J[0], J[1]) - 1j * J[2]) < ABS_TOL
        assert np.linalg.norm(commutator(J[1], J[2]) - 1j * J[0]) < ABS_TOL
        assert np.linalg.norm(commutator(J[2], J[0]) - 1j * J[1]) < ABS_TOL
        for a in range(3):
            assert np.linalg.norm(J[a] - J[a].conj().T) < ABS_TOL

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_casimir(self, twice):
        j = twice / 2.0
        J = spin_matrices(HalfInt(twice))
        C2 = sum(M @ M for M in J)
        assert np.allclose(C2, j * (j + 1) * np.eye(twice + 1), atol=ABS_TOL)


class TestRepGenerators:
    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_algebra_invariants(self, twice):
        rep = rep_generators(HalfInt(twice))
        eps = np.zeros((3, 3, 3))
        eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
        eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1
        for a in range(3):
            for b in range(3):
                target_J = 1j * sum(eps[a, b, c] * rep.J[c] for c in range(3))
                assert np.linalg.norm(commutator(rep.J[a], rep.J[b]) - target_J) < ABS_TOL
                assert np.linalg.norm(commutator(rep.K[a], rep.K[b]) + target_J) < ABS_TOL
            # eta anti-commutes with boosts, commutes with rotations
            assert np.linalg.norm(anticommutator(rep.eta, rep.K[a])) < ABS_TOL
            assert np.linalg.norm(commutator(rep.eta, rep.J[a])) < ABS_TOL

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_eta_is_exact_block_swap(self, twice):
        rep = rep_generators(HalfInt(twice))
        d = rep.j.block_dim
        assert np.array_equal(rep.eta @ rep.eta, np.eye(2 * d, dtype=complex))
        assert np.array_equal(rep.eta[:d, d:], np.eye(d, dtype=complex))
        assert np.array_equal(rep.eta[:d, :d], np.zeros((d, d)))

    def test_block_boost_closed_form(self):
        # j = 1/2, phi = (ln 4) z: exp(i K.phi) = diag(2, 1/2, 1/2, 2)
        from spinkin.kinematics import boost_matrix

        rep = rep_generators(HalfInt(1))
        B = boost_matrix(rep, (0.0, 0.0, np.log(4.0)))
        assert np.allclose(B, np.diag([2.0, 0.5, 0.5, 2.0]), atol=1e-13)

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_rotation_unitary_boost_positive(self, twice, rng):
        from spinkin.kinematics import boost_matrix, rotation_matrix

        rep = rep_generators(HalfInt(twice))
        theta = rng.normal(size=3)
        theta *= rng.uniform(0, 2 * np.pi) / np.linalg.norm(theta)
        U = rotation_matrix(rep, theta)
        assert np.linalg.norm(U @ U.conj().T - np.eye(rep.dim)) < ABS_TOL
        phi = rng.normal(size=3)
        B = boost_matrix(rep, phi)
        assert np.linalg.norm(B - B.conj().T) < ABS_TOL * np.linalg.norm(B)
        assert np.all(np.linalg.eigvalsh(B) > 0)


class TestVectorTransforms:
    def test_zero_rapidity_identity(self):
        assert np.allclose(vector_boost((0, 0, 0)).matrix, np.eye(4))

    def test_boost_of_rest_momentum(self):
        L = vector_boost((0.0, 0.0, np.log(2.0)))
        out = L.apply(np.array([1.0, 0, 0, 0]))
        assert np.allclose(out, [1.25, 0.0, 0.0, 0.75], atol=1e-14)

    def test_inverse_boost(self, rng):
        phi = rng.normal(size=3)
        L = vector_boost(phi).compose(vector_boost(-phi))
        assert np.allclose(L.matrix, np.eye(4), atol=1e-12)

    def test_metric_invariance(self, rng):
        for _ in range(20):
            L = vector_boost(rng.normal(size=3)).compose(vector_rotation(rng.normal(size=3)))
            assert L.metric_residual() < 1e-10

    def test_rotation_rodrigues(self):
        L = vector_rotation((0.0, 0.0, np.pi / 2))
        out = L.apply(np.array([0.0, 1.0, 0.0, 0.0]))
        assert np.allclose(out, [0.0, 0.0, 1.0, 0.0], atol=1e-14)

    def test_rapidity_cap(self):
        with pytest.raises(ValueError):
            vector_boost((31.0, 0.0, 0.0))

    def test_lorentz_transform_shape_check(self):
        with pytest.raises(ValueError):
            LorentzTransform(np.eye(3))


class TestTensorRep:
    def test_kz_spectrum(self):
        # j = 1/2: eigenvalues of (-i sz/2) x I + I x (i sz/2) are {0, 0, -i, +i}
        Kz = tensor_rep_generators(HalfInt(1)).K[2]
        ev = np.sort_complex(np.linalg.eigvals(Kz))
        assert np.allclose(ev, np.sort_complex(np.array([0, 0, -1j, 1j])), atol=1e-13)

    @pytest.mark.parametrize("twice", [1, 2])
    def test_kronecker_sum_commutators(self, twice):
        rep = tensor_rep_generators(HalfInt(twice))
        Jt, Kt = rep.J, rep.K
        assert np.linalg.norm(commutator(Jt[0], Jt[1]) - 1j * Jt[2]) < ABS_TOL
        assert np.linalg.norm(commutator(Kt[0], Kt[1]) + 1j * Jt[2]) < ABS_TOL
        assert np.linalg.norm(commutator(Jt[0], Kt[1]) - 1j * Kt[2]) < ABS_TOL

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_rep_generators_contract(self, twice):
        # the tensor representation is a RepGenerators whose eta is the swap
        rep = tensor_rep_generators(HalfInt(twice))
        n = (twice + 1) ** 2
        assert isinstance(rep, RepGenerators) and rep.dim == n and rep.eta.shape == (n, n)
        assert np.array_equal(rep.eta @ rep.eta, np.eye(n, dtype=complex))
        for a in range(3):
            assert np.linalg.norm(anticommutator(rep.eta, rep.K[a])) < ABS_TOL
            assert np.linalg.norm(commutator(rep.eta, rep.J[a])) < ABS_TOL
