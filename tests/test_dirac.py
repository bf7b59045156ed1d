import numpy as np
import pytest

from conftest import momenta
from spinkin.dirac import (
    boosted_spinors,
    dirac_operator,
    dirac_residual,
    gamma_matrices,
    rest_spinors,
)
from spinkin.kinematics import FourMomentum, parity_operator
from spinkin.reps import HalfInt, rep_generators

ABS_TOL = 1e-10
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


class TestGammaMatrices:
    def test_clifford_algebra_all_pairs(self):
        g = gamma_matrices().gamma
        for mu in range(4):
            for nu in range(4):
                anti = g[mu] @ g[nu] + g[nu] @ g[mu]
                assert np.allclose(anti, 2 * METRIC[mu, nu] * np.eye(4), atol=ABS_TOL)

    def test_gamma0_is_eta(self):
        assert np.array_equal(gamma_matrices().gamma[0], rep_generators(HalfInt(1)).eta)

    def test_specific_relations(self):
        g = gamma_matrices().gamma
        assert np.allclose(g[0] @ g[0], np.eye(4), atol=1e-15)
        assert np.allclose(g[1] @ g[2] + g[2] @ g[1], np.zeros((4, 4)), atol=1e-15)
        assert np.allclose(g[0] @ g[1] + g[1] @ g[0], np.zeros((4, 4)), atol=1e-15)

    def test_built_once_and_read_only(self):
        assert gamma_matrices() is gamma_matrices()
        for g in gamma_matrices().gamma:
            with pytest.raises(ValueError):
                g[0, 0] = 1.0
        # operators built from the shared set are fresh, writable arrays
        slash = dirac_operator(FourMomentum(1.0, (0.1, 0.2, 0.3)))
        slash[0, 0] = 1.0


class TestDiracOperator:
    def test_rest_frame(self):
        q = FourMomentum(1.7, (0, 0, 0))
        assert np.allclose(dirac_operator(q), 1.7 * rep_generators(HalfInt(1)).eta)

    def test_top_right_block(self):
        # m = 1, p = 0.75 z: E + sigma.p = diag(2, 0.5)
        q = FourMomentum(1.0, (0.0, 0.0, 0.75))
        slash = dirac_operator(q)
        assert np.allclose(slash[:2, 2:], np.diag([2.0, 0.5]), atol=1e-14)

    def test_eigenvalues_pm_m(self):
        q = FourMomentum(1.3, (0.5, -0.2, 0.1))
        ev = np.sort(np.linalg.eigvals(dirac_operator(q)).real)
        assert np.allclose(ev, [-1.3, -1.3, 1.3, 1.3], atol=1e-10)

    def test_parity_identification(self):
        # the central identity: m P(q) = gamma^mu p_mu
        rep = rep_generators(HalfInt(1))
        for q in momenta(31, 200):
            slash = dirac_operator(q)
            P = parity_operator(rep, q)
            assert np.linalg.norm(q.m * P - slash) <= 1e-10 * np.linalg.norm(slash)


class TestRestSpinors:
    def test_eta_eigenvectors(self):
        basis = rest_spinors(HalfInt(1))
        eta = rep_generators(HalfInt(1)).eta
        for w in basis.u:
            assert np.allclose(eta @ w, w, atol=1e-15)
        for w in basis.v:
            assert np.allclose(eta @ w, -w, atol=1e-15)

    def test_norm_sqrt_2m(self):
        basis = rest_spinors(HalfInt(2), mass=1.7)
        for w in basis.spinors:
            assert np.linalg.norm(w) == pytest.approx(np.sqrt(2 * 1.7), rel=1e-14)

    def test_rest_spinor_reconstruction(self, rng):
        # any (theta, lambda) = half of a u plus half of a v spinor
        d = 3
        theta = rng.normal(size=d) + 1j * rng.normal(size=d)
        lam = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = np.concatenate([theta, lam])
        u_part = 0.5 * np.concatenate([theta + lam, lam + theta])
        v_part = 0.5 * np.concatenate([theta - lam, lam - theta])
        assert np.allclose(psi, u_part + v_part, atol=1e-14)
        eta = rep_generators(HalfInt(2)).eta
        assert np.allclose(eta @ u_part, u_part, atol=1e-14)
        assert np.allclose(eta @ v_part, -v_part, atol=1e-14)

    def test_u_v_spans_orthogonal(self):
        basis = rest_spinors(HalfInt(3), mass=2.0)
        for a in basis.u:
            for b in basis.v:
                assert abs(np.vdot(a, b)) < 1e-14

    def test_rejects_bad_mass(self):
        for mass in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                rest_spinors(HalfInt(1), mass=mass)


class TestBoostedSpinors:
    def test_rest_momentum_unchanged(self):
        q = FourMomentum(2.0, (0, 0, 0))
        basis = boosted_spinors(HalfInt(1), q)
        rest = rest_spinors(HalfInt(1), mass=2.0)
        for w, w0 in zip(basis.spinors, rest.spinors):
            assert np.allclose(w, w0)

    @pytest.mark.parametrize("twice", [1, 2])
    def test_parity_eigenvectors(self, twice):
        rep = rep_generators(HalfInt(twice))
        for q in momenta(41 + twice, 15):
            basis = boosted_spinors(HalfInt(twice), q)
            P = parity_operator(rep, q)
            for w in basis.u:
                assert np.linalg.norm(P @ w - w) < 1e-9 * np.linalg.norm(w)
            for w in basis.v:
                assert np.linalg.norm(P @ w + w) < 1e-9 * np.linalg.norm(w)

    def test_dirac_equation_residuals(self):
        for q in momenta(53, 30):
            basis = boosted_spinors(HalfInt(1), q)
            for w in basis.u:
                assert dirac_residual(w, q, +1) <= 1e-10
            for w in basis.v:
                assert dirac_residual(w, q, -1) <= 1e-10

    def test_completeness_smallest_singular_value(self):
        for q in momenta(67, 30):
            basis = boosted_spinors(HalfInt(1), q)
            sv = np.linalg.svd(basis.stack(), compute_uv=False)
            # boosted frame condition grows like e^phi; stays well away from 0
            assert sv[-1] > 1e-3 * np.sqrt(2 * q.m)


class TestDiracResidual:
    def test_v_with_wrong_sign_is_two(self):
        q = FourMomentum(1.4, (0.3, 0.0, -0.9))
        basis = boosted_spinors(HalfInt(1), q)
        for w in basis.v:
            assert dirac_residual(w, q, +1) == pytest.approx(2.0, rel=1e-10)

    def test_random_spinor_strictly_positive(self, rng):
        q = FourMomentum(1.0, (0.1, 0.2, 0.3))
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert dirac_residual(psi, q, +1) > 0.0

    def test_zero_spinor_rejected(self):
        with pytest.raises(ValueError):
            dirac_residual(np.zeros(4), FourMomentum(1.0, (0, 0, 0)), +1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            dirac_residual(np.ones(4), FourMomentum(1.0, (0, 0, 0)), 2)
