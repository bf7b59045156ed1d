import warnings

import numpy as np
import pytest

from conftest import momenta
from spinkin import dirac
from spinkin.decomposition import hermiticity_condition, xi_tilde_at_rest
from spinkin.dirac import (
    SpinorBasis,
    boost_basis,
    boosted_spinors,
    dirac_operator,
    gamma_matrices,
    rest_spinors,
)
from spinkin.kinematics import FourMomentum, check_mass, parity_operator
from spinkin.reps import HalfInt, rep_generators

ABS_TOL = 1e-10
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def dirac_residual(psi, q: FourMomentum, sign: int) -> float:
    """||(gamma^mu p_mu - sign m) psi|| / (m ||psi||), through dirac_operator:
    zero exactly when psi solves its sign's Dirac equation."""
    op = dirac_operator(q) - sign * q.m * np.eye(4)
    return float(np.linalg.norm(op @ psi) / (q.m * np.linalg.norm(psi)))


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
        basis = rest_spinors(HalfInt(1), mass=1.0)
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

    @pytest.mark.parametrize("mass", [-1.0, 0.0, np.nan, None])
    def test_basis_mass_judged_where_it_is_read(self, mass):
        """A SpinorBasis built by hand with a bad mass is refused by each
        function that reads the mass: a negative mass never gives
        tilde-Xi(0) = -I, and nan or 0 are refused for what they are.
        boost_basis matches it against the judged mass of its momentum."""
        rest = rest_spinors(HalfInt(1), mass=1.0)
        basis = SpinorBasis(j=rest.j, mass=mass, u=rest.u, v=rest.v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for read in (xi_tilde_at_rest, hermiticity_condition):
                with pytest.raises(ValueError, match="^mass must be positive and finite"):
                    read(basis)
            with pytest.raises(ValueError, match="^basis mass .* does not match momentum mass"):
                boost_basis(basis, FourMomentum(1.0, (0.0, 0.0, 0.5)))

    def test_boosted_spinors_judge_the_mass_once(self, monkeypatch):
        """The mass is judged once, by FourMomentum: boosted_spinors calls
        check_mass zero times and takes q.m as it is, and boost_basis
        still refuses a hand-built basis whose mass does not match q.m."""
        calls = []
        monkeypatch.setattr(dirac, "check_mass", lambda m: calls.append(m) or check_mass(m))
        q = momenta(17, 5)
        basis = boosted_spinors(HalfInt(2), q)
        assert len(calls) == 0 and np.array_equal(basis.mass, q.m)
        rest = rest_spinors(HalfInt(2), mass=q.m * (1.0 + 1e-9))
        with pytest.raises(ValueError, match="^basis mass .* does not match momentum mass"):
            boost_basis(rest, q)


    @pytest.mark.parametrize("m", [1e-6, 1.0, 1e6])
    def test_basis_mass_judged_relative_to_the_momentum_mass(self, m):
        """boost_basis matches the basis mass within 1e-12 q.m, so a rest
        basis off by 1e-7 relative is refused and one off by 1e-14 accepted
        below unit mass as above it."""
        q = FourMomentum(m, (0.3 * m, 0.0, 0.5 * m))
        with pytest.raises(ValueError, match="^basis mass .* does not match momentum mass"):
            boost_basis(rest_spinors(HalfInt(1), mass=m * (1.0 + 1e-7)), q)
        near = boost_basis(rest_spinors(HalfInt(1), mass=m * (1.0 + 1e-14)), q)
        assert len(near.u) == len(near.v) == 2


class TestBoostedSpinors:
    @pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_one_boost_path(self, twice, stack):
        """boosted_spinors(j, q) is boost_basis(rest_spinors(j, q.m), q) bit
        for bit: every u, every v and the mass. Each side gets its own
        momentum object, so each evaluates its own boost."""
        j = HalfInt(twice)
        q, again = momenta(60 + twice, 50), momenta(60 + twice, 50)
        if not stack:
            q, again = q[13], again[13]
        got = boosted_spinors(j, q)
        want = boost_basis(rest_spinors(j, mass=again.m), again)
        assert got.j == want.j and (len(got.u), len(got.v)) == (len(want.u), len(want.v)) == (j.block_dim,) * 2
        for a, b in zip(got.spinors + (got.mass,), want.spinors + (want.mass,), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

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
