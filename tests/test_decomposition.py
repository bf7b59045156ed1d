import warnings

import numpy as np
import pytest

import spinkin.kinematics
from conftest import momenta
from spinkin.decomposition import (
    NonHermitianBasisError,
    decomposition_residual,
    elko_rest_basis,
    hermiticity_condition,
    k_operator,
    xi_tilde_at_rest,
)
from spinkin.dirac import SpinorBasis, boost_basis, dirac_operator, rest_spinors
from spinkin.kinematics import FourMomentum, boost_matrix, parity_operator, rapidity_from_momentum
from spinkin.reps import HalfInt, rep_generators


def completeness_residual(basis: SpinorBasis) -> float:
    """||sum_s (u u^dag + v v^dag) - 2m I||_F of one basis, from np.outer;
    zero in the Hermitian case."""
    acc = sum(np.outer(w, np.conj(w)) for w in basis.spinors)
    return float(np.linalg.norm(acc - 2.0 * basis.mass * np.eye(basis.j.dim)))


def xi_closed_form(basis: SpinorBasis) -> np.ndarray:
    """Independent solver route: from W^dag X eta W = 2m J with W the stacked
    basis and J = diag(I, -I), so X = 2m (W^dag)^-1 J W^-1 eta."""
    m = basis.mass
    eta = rep_generators(basis.j).eta
    W = basis.stack()
    J = np.diag([1.0] * len(basis.u) + [-1.0] * len(basis.v)).astype(complex)
    X = 2 * m * np.linalg.inv(W.conj().T) @ J @ np.linalg.inv(W) @ eta
    return X.conj().T  # xi_tilde_at_rest returns tilde-Xi(0) = X^dagger


def xi_kron_system(basis: SpinorBasis) -> tuple[np.ndarray, np.ndarray]:
    """The constraint rows of xi_tilde_at_rest one np.kron at a time, and the
    right-hand side."""
    m = basis.mass
    eta = rep_generators(basis.j).eta
    rows, targets = [], []
    for ia, wa in enumerate(basis.spinors):
        for ib, wb in enumerate(basis.spinors):
            rows.append(np.kron(np.conj(wa), eta @ wb))
            targets.append((2.0 * m if ia < len(basis.u) else -2.0 * m) if ia == ib else 0.0)
    return np.array(rows), np.array(targets, dtype=complex)


def xi_kron_rows(basis: SpinorBasis) -> np.ndarray:
    """Reference for xi_tilde_at_rest: the kron rows as one square system of
    d^2 equations, solved by np.linalg.solve."""
    system, rhs = xi_kron_system(basis)
    d = basis.j.dim
    return np.linalg.solve(system, rhs[:, None]).reshape(d, d).conj().T


def xi_lstsq(basis: SpinorBasis) -> np.ndarray:
    """Reference for xi_tilde_at_rest: the least-squares solution of the kron
    rows, one basis at a time."""
    system, rhs = xi_kron_system(basis)
    d = basis.j.dim
    return np.linalg.lstsq(system, rhs, rcond=None)[0].reshape(d, d).conj().T


class TestXiTilde:
    @pytest.mark.parametrize(
        "basis",
        [rest_spinors(HalfInt(t), mass=1.7) for t in (1, 2, 3)]
        + [elko_rest_basis(0.3, n) for n in ((0, 0, 1), (1.0, 2.0, 3.0), (0.3, -1.0, 0.2))],
    )
    def test_broadcast_rows_match_kron_loop(self, basis):
        got = xi_tilde_at_rest(basis)
        want = xi_kron_rows(basis)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("make", [lambda m: rest_spinors(HalfInt(1), mass=m), elko_rest_basis])
    def test_batch_matches_per_basis_lstsq(self, make):
        masses = np.exp(np.random.default_rng(5).uniform(np.log(0.1), np.log(10.0), 40))
        got = xi_tilde_at_rest(make(masses))
        assert got.shape == (40, 4, 4)
        for k, mass in enumerate(masses):
            single = make(float(mass))
            assert np.array_equal(got[k], xi_tilde_at_rest(single))
            want = xi_lstsq(single)
            assert np.linalg.norm(got[k] - want) <= 1e-14 * np.linalg.norm(want)

    def test_general_spin_batch_matches_lstsq(self):
        for twice in (2, 3):
            masses = np.array([0.2, 1.0, 7.5])
            got = xi_tilde_at_rest(rest_spinors(HalfInt(twice), mass=masses))
            for k, mass in enumerate(masses):
                want = xi_lstsq(rest_spinors(HalfInt(twice), mass=mass))
                assert np.linalg.norm(got[k] - want) <= 1e-14 * np.linalg.norm(want)

    def test_canonical_basis_gives_identity(self):
        basis = rest_spinors(HalfInt(1), mass=1.7)
        xt = xi_tilde_at_rest(basis)
        assert np.allclose(xt, np.eye(4), atol=1e-11)

    def test_constraint_residual(self):
        basis = elko_rest_basis(mass=0.8)
        xt = xi_tilde_at_rest(basis)
        eta = rep_generators(HalfInt(1)).eta
        X = xt.conj().T
        for ia, wa in enumerate(basis.spinors):
            for ib, wb in enumerate(basis.spinors):
                val = np.vdot(wa, X @ (eta @ wb))
                if ia == ib:
                    target = 2 * 0.8 if ia < 2 else -2 * 0.8
                else:
                    target = 0.0
                assert abs(val - target) < 1e-11

    def test_elko_basis_nontrivial(self):
        xt = xi_tilde_at_rest(elko_rest_basis(mass=1.0))
        assert np.linalg.norm(xt - np.eye(4)) > 1.0

    def test_two_solver_routes_agree(self):
        for mass in (0.3, 1.0, 4.2):
            for make in (lambda m: rest_spinors(HalfInt(1), mass=m), elko_rest_basis):
                basis = make(mass)
                assert np.allclose(xi_tilde_at_rest(basis), xi_closed_form(basis), atol=1e-10)

    def test_general_spin_canonical(self):
        basis = rest_spinors(HalfInt(2), mass=2.0)
        assert np.allclose(xi_tilde_at_rest(basis), np.eye(6), atol=1e-11)

    def test_degenerate_basis_rejected(self):
        good = rest_spinors(HalfInt(1), mass=1.0)
        bad = SpinorBasis(j=good.j, mass=good.mass, u=(good.u[0], good.u[0]), v=good.v)
        with pytest.raises(ValueError):
            xi_tilde_at_rest(bad)

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_degenerate_entry_of_a_batch_rejected(self, k):
        # one degenerate basis at index k of a batch raises as its single call does
        good = rest_spinors(HalfInt(1), mass=np.full(7, 1.3))
        u0 = good.u[0].copy()
        u1 = good.u[1].copy()
        u1[k] = u0[k]
        bad = SpinorBasis(j=good.j, mass=good.mass, u=(u0, u1), v=good.v)
        with pytest.raises(ValueError, match="singular"):
            xi_tilde_at_rest(SpinorBasis(j=good.j, mass=1.3, u=(u0[k], u1[k]), v=tuple(w[k] for w in good.v)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="singular"):
                xi_tilde_at_rest(bad)

    @pytest.mark.parametrize("mass", [1.0, 1e-200, 1e200])
    def test_inconsistent_solution_refused_at_any_mass(self, monkeypatch, mass):
        """A solve off by 1e-6 relative breaks the relations by 2e-6 of 2m at
        every mass scale; judged over 2m, no norm overflows to hide it."""
        basis = rest_spinors(HalfInt(1), mass=mass)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi_tilde_at_rest(basis)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-6))
        with pytest.raises(ValueError, match="inconsistent"):
            xi_tilde_at_rest(basis)

    def test_overflowing_2m_refused(self):
        # sigma(W) is about sqrt(2m) = 1.4e154 and its square overflows, so
        # the rank is judged unsquared; the one thing out of range is 2m
        masses = np.array([1.0, 1e308, 1e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^2m overflows double precision \(m = 1e\+308\)"):
                xi_tilde_at_rest(rest_spinors(HalfInt(1), mass=1e308))
            with pytest.raises(ValueError, match="2m overflows"):
                xi_tilde_at_rest(rest_spinors(HalfInt(1), mass=masses))
            assert np.allclose(xi_tilde_at_rest(rest_spinors(HalfInt(1), mass=1e307)), np.eye(4), atol=1e-11)

    def test_incomplete_basis_rejected(self):
        good = rest_spinors(HalfInt(1), mass=1.0)
        with pytest.raises(ValueError, match="degenerate"):
            xi_tilde_at_rest(SpinorBasis(j=good.j, mass=good.mass, u=good.u, v=good.v[:1]))


class TestKOperator:
    def test_equals_parity_for_canonical_basis(self):
        basis = rest_spinors(HalfInt(1), mass=1.3)
        rep = rep_generators(HalfInt(1))
        for q in momenta(211, 20):
            q = FourMomentum(1.3, q.p)
            K = k_operator(basis, q)
            assert np.allclose(K, parity_operator(rep, q), atol=1e-9)

    def test_involution_and_trace(self):
        basis = elko_rest_basis(mass=1.0)
        for q in momenta(223, 20):
            q = FourMomentum(1.0, q.p)
            K = k_operator(basis, q)
            assert np.linalg.norm(K @ K - np.eye(4)) < 1e-10
            assert abs(np.trace(K)) < 1e-10

    def test_eigenvector_defining_property(self):
        basis = elko_rest_basis(mass=2.0)
        q = FourMomentum(2.0, (0.5, -1.0, 0.25))
        K = k_operator(basis, q)
        boosted = boost_basis(basis, q)
        for w in boosted.u:
            assert np.linalg.norm(K @ w - w) < 1e-11 * np.linalg.norm(w)
        for w in boosted.v:
            assert np.linalg.norm(K @ w + w) < 1e-11 * np.linalg.norm(w)

    def test_similar_to_rest_operator(self):
        # K(q) = B K(0) B^-1: eigenvalues preserved even though K(q) is not
        # Hermitian away from rest
        basis = elko_rest_basis(mass=1.0)
        q = FourMomentum(1.0, (0.9, 0.1, -0.4))
        K0 = k_operator(basis, FourMomentum(1.0, (0, 0, 0)))
        B = boost_matrix(rep_generators(HalfInt(1)), rapidity_from_momentum(q))
        assert np.allclose(k_operator(basis, q), B @ K0 @ np.linalg.inv(B), atol=1e-10)


class TestHermiticity:
    def test_canonical_true(self):
        assert hermiticity_condition(rest_spinors(HalfInt(1), mass=1.0))

    def test_elko_true(self):
        assert hermiticity_condition(elko_rest_basis(mass=1.0))

    def test_corrupted_basis_false(self):
        good = rest_spinors(HalfInt(1), mass=1.0)
        bad = SpinorBasis(
            j=good.j, mass=good.mass, u=good.u, v=(good.v[0] + 0.5 * good.u[0], good.v[1])
        )
        assert not hermiticity_condition(bad)

    def test_completeness_sum(self):
        for make in (lambda: rest_spinors(HalfInt(1), mass=1.6), lambda: elko_rest_basis(1.6)):
            assert completeness_residual(make()) < 1e-10 * 2 * 1.6

    @pytest.mark.parametrize("make", [lambda m: rest_spinors(HalfInt(1), mass=m), elko_rest_basis])
    def test_completeness_batch_matches_single_bases(self, make):
        """Each basis of a mass array is its single basis bit for bit, so it
        is complete as the single one is."""
        masses = np.array([1.0, 2.0, 3.0, 0.37])
        batch = make(masses)
        assert hermiticity_condition(batch)
        for k, mass in enumerate(masses):
            single = make(float(mass))
            assert all(np.array_equal(w[k], w1) for w, w1 in zip(batch.spinors, single.spinors))
            assert completeness_residual(single) < 1e-10 * 2 * mass

    def test_completeness_per_spinor_outer_products(self):
        """The completeness relation holds exactly when hermiticity_condition
        does: a u-v overlap breaks both."""
        good = elko_rest_basis(0.9)
        bad = SpinorBasis(j=good.j, mass=good.mass, u=good.u, v=(good.v[0] + 0.5 * good.u[0], good.v[1]))
        assert hermiticity_condition(good) and completeness_residual(good) < 1e-10 * 2 * 0.9
        assert not hermiticity_condition(bad) and completeness_residual(bad) > 0.1


class TestDecomposition:
    def test_canonical_reduces_to_dirac_identity(self):
        basis = rest_spinors(HalfInt(1), mass=1.0)
        for q in momenta(227, 30):
            q = FourMomentum(1.0, q.p)
            assert decomposition_residual(basis, q).residual <= 1e-10

    def test_helicity_basis_full_pipeline(self):
        basis = elko_rest_basis(mass=1.0)
        for q in momenta(229, 30):
            q = FourMomentum(1.0, q.p)
            assert decomposition_residual(basis, q).residual <= 1e-9

    def test_rest_frame_exact(self):
        basis = rest_spinors(HalfInt(1), mass=2.0)
        q = FourMomentum(2.0, (0, 0, 0))
        K = k_operator(basis, q)
        xi0 = xi_tilde_at_rest(basis).conj().T
        eta = rep_generators(HalfInt(1)).eta
        assert np.allclose(2.0 * K @ xi0, dirac_operator(q), atol=1e-10)
        assert np.allclose(dirac_operator(q), 2.0 * eta, atol=1e-15)

    def test_one_boost_per_momentum(self, monkeypatch):
        """Xi(q) and k_operator's boosted basis share the boost memoised on q,
        and so does a second basis decomposed at the same momenta; the result
        equals that of a new momentum object bit for bit."""
        q = momenta(231, 12)
        canonical, helicity = rest_spinors(HalfInt(1), mass=q.m), elko_rest_basis(q.m)
        calls = []
        original = spinkin.kinematics.boost_matrix
        monkeypatch.setattr(spinkin.kinematics, "boost_matrix", lambda *a: calls.append(1) or original(*a))
        first = decomposition_residual(canonical, q)
        assert len(calls) == 1
        second = decomposition_residual(helicity, q)
        assert len(calls) == 1
        for basis, got in ((canonical, first), (helicity, second)):
            want = decomposition_residual(basis, FourMomentum(q.m, q.p))
            assert np.array_equal(got.residual, want.residual) and np.array_equal(got.Xi, want.Xi)
        # one boost for each new momentum object
        assert len(calls) == 3

    @pytest.mark.parametrize("make", [lambda m: rest_spinors(HalfInt(1), mass=m), elko_rest_basis])
    @pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e160, 1e300])
    def test_residual_at_any_mass_scale(self, make, scale):
        """Both sides are judged over m, so at a mass far from 1 the
        difference does not underflow to a residual of 0: it is non-zero and
        within a factor 8 of the residual at mass 1."""
        at_one = decomposition_residual(make(1.0), FourMomentum(1.0, (1.0, 0.0, 0.0))).residual
        got = decomposition_residual(make(scale), FourMomentum(scale, (scale, 0.0, 0.0))).residual
        assert at_one / 8 <= got <= 8 * at_one

    def test_general_spin_against_parity(self):
        basis = rest_spinors(HalfInt(2), mass=1.0)
        for q in momenta(233, 10):
            q = FourMomentum(1.0, q.p)
            assert decomposition_residual(basis, q).residual <= 1e-9

    def test_non_hermitian_rejected_with_typed_error(self):
        good = rest_spinors(HalfInt(1), mass=1.0)
        bad = SpinorBasis(
            j=good.j, mass=good.mass, u=good.u, v=(good.v[0] + 0.5 * good.u[0], good.v[1])
        )
        with pytest.raises(NonHermitianBasisError):
            decomposition_residual(bad, FourMomentum(1.0, (0.1, 0.2, 0.3)))

    def test_derivation_chain_step_by_step(self):
        # the four displayed lines of the K(p) = Xi(p) P(p) derivation agree
        # pairwise, and K^2 = I closes the decomposition
        for name, basis in (
            ("canonical", rest_spinors(HalfInt(1), mass=1.4)),
            ("elko", elko_rest_basis(mass=1.4)),
        ):
            m = 1.4
            rep = rep_generators(HalfInt(1))
            xt = xi_tilde_at_rest(basis)
            X = xt.conj().T  # tilde-Xi(0)^dagger
            for q in momenta(239, 10):
                q = FourMomentum(m, q.p)
                phi = rapidity_from_momentum(q)
                B = boost_matrix(rep, phi)
                Binv = np.linalg.inv(B)
                boosted = boost_basis(basis, q)
                outer = sum(np.outer(w, np.conj(w)) for w in boosted.spinors)
                line1 = (1.0 / (2 * m)) * outer @ (Binv @ X @ B) @ rep.eta
                line2 = B @ X @ B @ rep.eta
                line3 = (B @ X @ Binv) @ (boost_matrix(rep, 2 * phi) @ rep.eta)
                K = k_operator(basis, q)
                assert np.linalg.norm(line1 - line2) < 1e-9
                assert np.linalg.norm(line2 - line3) < 1e-9
                assert np.linalg.norm(line3 - K) < 1e-9
                assert np.linalg.norm(K @ K - np.eye(4)) < 1e-10
                Xi_q = B @ X @ Binv
                assert np.linalg.norm(dirac_operator(q) - m * K @ Xi_q) < 1e-9 * np.linalg.norm(
                    dirac_operator(q)
                )
                result = decomposition_residual(basis, q)
                assert np.array_equal(result.K, K)
                assert np.linalg.norm(result.Xi - Xi_q) < 1e-12

    def test_mass_mismatch_rejected(self):
        basis = rest_spinors(HalfInt(1), mass=1.0)
        with pytest.raises(ValueError):
            boost_basis(basis, FourMomentum(2.0, (0.1, 0, 0)))
