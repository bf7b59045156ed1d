import warnings

import numpy as np
import pytest

from spinkin.elko import (
    THETA,
    Cx2Basis,
    antilinear_family,
    antilinear_kinematic_solutions,
    antilinear_rest_map,
    charge_conjugation,
    elko_basis,
    elko_pair,
    g_operator,
    helicity_g,
    helicity_origin_discontinuity,
    helicity_spinors,
    nogo_monte_carlo,
    rotation_commutant_residual,
    schur_condition_family,
    schur_conditions,
)
from spinkin.kinematics import rotation_matrix
from spinkin.linalg import nullspace
from spinkin.reps import HalfInt, rep_generators, spin_matrices

G_E1_E2 = np.array([[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]], dtype=complex)


def g_from_eigenvectors(basis: Cx2Basis) -> np.ndarray:
    """Independent oracle: diag(1, 1, -1, -1) pushed through the Elko basis."""
    eb = elko_basis(basis)
    V = eb.stack()
    return V @ np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex) @ np.linalg.inv(V)


def random_basis(rng, det_min=0.1) -> Cx2Basis:
    while True:
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        basis = Cx2Basis(u=z[:2] / np.linalg.norm(z[:2]), v=z[2:] / np.linalg.norm(z[2:]))
        if abs(basis.det) >= det_min:
            return basis


def nogo_floor_scalar(samples: int, seed: int) -> float:
    """Reference for nogo_monte_carlo: one candidate at a time, in numpy
    complex scalars, drawn as normal(4) + 1j * normal(4)."""
    rng = np.random.default_rng(seed)
    floor = np.inf
    count = 0
    while count < samples:
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        u = z[:2] / np.linalg.norm(z[:2])
        v = z[2:] / np.linalg.norm(z[2:])
        if abs(complex(u[0] * v[1] - u[1] * v[0])) < 0.1:
            continue
        count += 1
        a, b = u
        c, d = v
        r1 = abs(a * np.conj(d) - c * np.conj(b))
        r2 = abs(np.imag(a * np.conj(c)) - np.imag(b * np.conj(d)))
        floor = min(floor, float(max(r1, r2)))
    return float(floor)


def schur_conditions_numpy(basis: Cx2Basis) -> tuple[float, float]:
    """Reference for schur_conditions: the formula in numpy complex scalars."""
    a, b = basis.u
    c, d = basis.v
    r1 = abs(a * np.conj(d) - c * np.conj(b))
    r2 = abs(np.imag(a * np.conj(c)) - np.imag(b * np.conj(d)))
    return float(r1), float(r2)


def commutant_residual_scalar(G, samples: int, seed: int) -> float:
    """Reference for rotation_commutant_residual: rotations drawn afresh."""
    rep = rep_generators(HalfInt(1))
    rng = np.random.default_rng(seed)
    worst = 0.0
    scale = float(np.linalg.norm(G))
    for _ in range(samples):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        D = rotation_matrix(rep, rng.uniform(0.0, np.pi) * d)
        worst = max(worst, float(np.linalg.norm(G @ D - D @ G)) / scale)
    return worst


class TestWignerTheta:
    def test_square_minus_identity(self):
        assert np.array_equal(THETA @ THETA, -np.eye(2, dtype=complex))

    def test_conjugation_identity(self):
        # Theta J Theta^-1 = -conj(J) for the spin-1/2 generators
        for J in spin_matrices(HalfInt(1)):
            assert np.allclose(THETA @ J @ np.linalg.inv(THETA), -np.conj(J), atol=1e-15)


class TestChargeConjugation:
    def test_squares_to_identity(self):
        C = charge_conjugation()
        assert np.allclose(C.squared(), np.eye(4), atol=1e-15)

    def test_antilinearity(self, rng):
        C = charge_conjugation()
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.allclose(C(1j * psi), -1j * C(psi), atol=1e-14)

    def test_elko_eigenvalue_relations(self, rng):
        C = charge_conjugation()
        for _ in range(10):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            up, um = elko_pair(u)
            vp, vm = elko_pair(v)
            assert np.linalg.norm(C(up) - up) < 1e-12 * np.linalg.norm(up)
            assert np.linalg.norm(C(um) + um) < 1e-12 * np.linalg.norm(um)
            assert np.linalg.norm(C(vp) - vp) < 1e-12 * np.linalg.norm(vp)
            assert np.linalg.norm(C(vm) + vm) < 1e-12 * np.linalg.norm(vm)


class TestElkoBasis:
    def test_e1_example(self):
        up, um = elko_pair(np.array([1.0, 0.0], dtype=complex))
        assert np.allclose(up, [0.0, 1j, 1.0, 0.0], atol=1e-15)
        assert np.allclose(um, [0.0, -1j, 1.0, 0.0], atol=1e-15)

    def test_association_is_nonlinear(self):
        u = np.array([1.0 + 0.5j, -0.3j])
        up_scaled, _ = elko_pair(2.0j * u)
        up, _ = elko_pair(u)
        assert not np.allclose(up_scaled, 2.0j * up)

    def test_four_spinors_linearly_independent(self, rng):
        basis = random_basis(rng)
        V = elko_basis(basis).stack()
        assert np.linalg.matrix_rank(V) == 4

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            elko_basis(Cx2Basis(u=np.array([1.0, 0.0]), v=np.array([2.0, 0.0])))

    @pytest.mark.parametrize(
        "u, v",
        [
            ([1e200, 1e200], [1e200, -1e200]),  # det overflows to -inf
            ([1.5e308, 0.0], [0.0, 1.0 + 1.0j]),  # finite det, |det| beyond the float range
            ([1e154, 1e154], [1e154, 1e154j]),  # finite det, the entries of G overflow
        ],
    )
    def test_non_finite_result_rejected(self, u, v):
        basis = Cx2Basis(u=np.array(u), v=np.array(v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                g_operator(basis)


class TestGOperator:
    def test_e1_e2_frozen_matrix(self):
        basis = Cx2Basis(u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]))
        assert np.max(np.abs(g_operator(basis) - G_E1_E2)) <= 1e-14

    def test_matches_eigenvector_oracle(self, rng):
        worst = 0.0
        for _ in range(100):
            basis = random_basis(rng)
            G = g_operator(basis)
            worst = max(worst, np.linalg.norm(G - g_from_eigenvectors(basis)))
        assert worst < 1e-11

    def test_involution_and_relations(self, rng):
        for _ in range(50):
            basis = random_basis(rng)
            G = g_operator(basis)
            eb = elko_basis(basis)
            assert np.linalg.norm(G @ G - np.eye(4)) < 1e-10
            for w, s in ((eb.u_plus, 1), (eb.u_minus, -1), (eb.v_plus, 1), (eb.v_minus, -1)):
                assert np.linalg.norm(G @ w - s * w) < 1e-10 * np.linalg.norm(w)


class TestSchurConditions:
    def test_e1_e2_fails_first_condition(self):
        r1, r2 = schur_conditions(Cx2Basis(u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0])))
        assert r1 == pytest.approx(1.0, abs=1e-15)
        assert r2 == pytest.approx(0.0, abs=1e-15)

    def test_constructive_family_zeroes_first_condition(self):
        # a = lam conj(b), c = lam conj(d) with lam = 1, b = 1, d = i:
        # u = (1, 1), v = (-i, i); r1 = 0 while det = 2i stays nondegenerate
        basis = schur_condition_family(1.0, 1.0, 1j)
        assert np.allclose(basis.u, [1.0, 1.0])
        assert np.allclose(basis.v, [-1j, 1j])
        r1, r2 = schur_conditions(basis)
        assert r1 == pytest.approx(0.0, abs=1e-15)
        assert r2 == pytest.approx(2.0, abs=1e-15)
        assert abs(basis.det) == pytest.approx(2.0, abs=1e-15)

    def test_python_arithmetic_matches_numpy_scalars(self, rng):
        for _ in range(3000):
            z = (rng.normal(size=4) + 1j * rng.normal(size=4)) * np.exp(rng.uniform(-30, 30, size=4))
            basis = Cx2Basis(u=z[:2], v=z[2:])
            assert schur_conditions(basis) == schur_conditions_numpy(basis)

    @pytest.mark.parametrize(
        "u, v",
        [
            ([1e200, 1e200], [1e200, -1e200]),  # r1 = |inf - inf| is nan
            ([1.5e308, 0.0], [0.0, 1.0 + 1.0j]),  # finite a conj(d), modulus beyond the float range
            ([1e300, 1e300j], [1e300, 0.0]),  # c conj(b) overflows to inf
            ([1e200, 0.0], [1e200j, 0.0]),  # r2: Im(a conj(c)) overflows
        ],
    )
    def test_non_finite_conditions_rejected(self, u, v):
        basis = Cx2Basis(u=np.array(u), v=np.array(v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                schur_conditions(basis)

    def test_commutant_residual_iff_conditions(self, rng):
        # per-sample equivalence at the stated thresholds, both directions
        for _ in range(60):
            basis = random_basis(rng)
            r1, r2 = schur_conditions(basis)
            comm = rotation_commutant_residual(g_operator(basis), samples=20, seed=7)
            assert (comm <= 1e-9) == (max(r1, r2) <= 1e-10)

    def test_cached_rotations_match_fresh_draws(self, rng):
        # calls for two seeds interleaved: each seed's rotation set is drawn
        # once and reused, and reads as a fresh draw would
        for k in range(8):
            seed, samples = ((3, 20), (11, 5))[k % 2]
            G = g_operator(random_basis(rng))
            got = rotation_commutant_residual(G, samples=samples, seed=seed)
            assert got == commutant_residual_scalar(G, samples, seed)

    def test_commutant_detects_each_condition_alone(self):
        # r1 = 0, r2 > 0 is still not rotation invariant
        basis = schur_condition_family(1.0, 1.0, 1j)
        assert rotation_commutant_residual(g_operator(basis), samples=20, seed=8) > 1e-3
        # r2 = 0, r1 > 0 likewise
        basis = Cx2Basis(u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]))
        assert rotation_commutant_residual(g_operator(basis), samples=20, seed=9) > 1e-3

    def test_block_scalar_matrices_commute(self, rng):
        # the converse direction of Schur at the operator level: anything in
        # the block-scalar commutant commutes with every sampled rotation
        blocks = rng.normal(size=4) + 1j * rng.normal(size=4)
        G = np.block(
            [
                [blocks[0] * np.eye(2), blocks[1] * np.eye(2)],
                [blocks[2] * np.eye(2), blocks[3] * np.eye(2)],
            ]
        )
        assert rotation_commutant_residual(G, samples=20, seed=10) < 1e-12

    def test_boosted_basis_equals_conjugated_g(self, rng):
        # the Elko structure survives boosts: B4 elko(u) = elko(B_left u) with
        # B_left the left-handed block, so G of the boosted pair equals the
        # boost-conjugated G; this is the reduction-to-rest step
        from spinkin.kinematics import boost_matrix

        rep = rep_generators(HalfInt(1))
        for _ in range(10):
            basis = random_basis(rng)
            phi = rng.normal(size=3)
            B4 = boost_matrix(rep, phi)
            B_left = B4[2:, 2:]
            moved = Cx2Basis(u=B_left @ basis.u, v=B_left @ basis.v)
            lhs = g_operator(moved)
            rhs = B4 @ g_operator(basis) @ np.linalg.inv(B4)
            assert np.linalg.norm(lhs - rhs) < 1e-9 * np.linalg.norm(rhs)

    def test_commutant_space_is_block_scalar(self, rng):
        # numerical Schur lemma: the commutant of {diag(D, D)} has dimension 4
        rep = rep_generators(HalfInt(1))
        rows = []
        I4 = np.eye(4, dtype=complex)
        for _ in range(20):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            D = rotation_matrix(rep, rng.uniform(0, np.pi) * d)
            rows.append(np.kron(D, I4) - np.kron(I4, D.T))  # row-major vec of [D, X]
        ns = nullspace(np.vstack(rows), tol=1e-10)
        assert ns.shape[1] == 4
        for k in range(4):
            X = ns[:, k].reshape(4, 4)
            for r in (0, 2):
                for c in (0, 2):
                    blk = X[r : r + 2, c : c + 2]
                    assert np.linalg.norm(blk - (np.trace(blk) / 2) * np.eye(2)) < 1e-10


class TestNogo:
    def test_both_conditions_force_degeneracy(self, rng):
        # lam real-ish family with Im(b conj(d)) = 0: det vanishes identically
        for _ in range(100):
            lam = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            basis = schur_condition_family(lam, b, float(rng.normal()) * b)
            r1, r2 = schur_conditions(basis)
            assert max(r1, r2) < 1e-12
            assert abs(basis.det) < 1e-10

    def test_monte_carlo_floor(self):
        report = nogo_monte_carlo(samples=10_000, seed=20240811)
        assert report["pass"]
        # observed floor at this seed; well above the 0.01 detection threshold
        assert report["min_max_r"] > 0.1

    @pytest.mark.parametrize("seed", [0, 7, 20240811])
    @pytest.mark.parametrize("samples", [1, 1023, 1024, 1025, 10_000])
    def test_array_sweep_matches_scalar_loop(self, samples, seed):
        # chunk edges (1024 candidates per pass) and the default sweep
        assert nogo_monte_carlo(samples=samples, seed=seed)["min_max_r"] == nogo_floor_scalar(samples, seed)


class TestAntilinearSolutions:
    def test_dimension_and_span(self):
        space = antilinear_kinematic_solutions(rep_generators(HalfInt(1)))
        assert space.dimension == 2
        assert space.span_residual < 1e-12

    def test_eq23_members_anticommute(self, rng):
        rep = rep_generators(HalfInt(1))
        for _ in range(5):
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            fam = antilinear_family(rep, a, b)
            assert fam.anticommutator_residual() < 1e-14

    def test_square_is_minus_moduli(self):
        A = antilinear_rest_map(1.0, 1.0)
        assert np.allclose(A.squared(), -np.eye(4), atol=1e-15)
        A = antilinear_rest_map(2.0, 0.5j)
        ev = np.sort(np.linalg.eigvals(A.squared()).real)
        assert np.allclose(ev, [-4.0, -4.0, -0.25, -0.25], atol=1e-12)

    def test_no_member_squares_to_identity(self, rng):
        rep = rep_generators(HalfInt(1))
        from spinkin.kinematics import FourMomentum

        q = FourMomentum(1.0, (0.2, -0.6, 0.3))
        for amag in (0.1, 1.0, 10.0):
            for bmag in (0.1, 1.0, 10.0):
                a = amag * np.exp(1j * rng.uniform(0, 2 * np.pi))
                b = bmag * np.exp(1j * rng.uniform(0, 2 * np.pi))
                fam = antilinear_family(rep, a, b)
                gap = np.linalg.norm(fam.squared_at(q) - np.eye(4))
                assert gap >= 1.0


class TestHelicityOrigin:
    def test_helicity_eigenvectors(self):
        u, v = helicity_spinors((0.0, 0.0, 2.5))
        sz = np.diag([1.0, -1.0]).astype(complex)
        assert np.linalg.norm(sz @ u - u) < 1e-14
        assert np.linalg.norm(sz @ v + v) < 1e-14

    def test_direction_only_dependence(self):
        G1 = helicity_g((0.0, 0.0, 1e-3))
        G2 = helicity_g((0.0, 0.0, 1e-6))
        assert np.linalg.norm(G1 - G2) <= 1e-6

    def test_report(self):
        report = helicity_origin_discontinuity(1.0)
        assert max(report["ray_cauchy"].values()) <= 1e-6
        assert report["pairwise_distance"]["(0,0,1) vs (1,0,0)"] > 0.1
        assert report["pairwise_distance"]["(0,0,1) vs (0,0,-1)"] > 0.1

    def test_deterministic(self):
        a = helicity_g((1e-4, 0.0, 0.0))
        b = helicity_g((1e-4, 0.0, 0.0))
        assert np.array_equal(a, b)

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            helicity_spinors((0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            helicity_origin_discontinuity(-1.0)
