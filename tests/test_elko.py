import warnings

import numpy as np
import pytest

from spinkin import checks
from spinkin.elko import (
    THETA,
    _seeded_rotations,
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


def det_scalar(basis: Cx2Basis) -> complex:
    """Reference for Cx2Basis.det: a d - b c in Python complex arithmetic."""
    a, b = basis.u.tolist()
    c, d = basis.v.tolist()
    return a * d - b * c


def g_operator_scalar(basis: Cx2Basis) -> np.ndarray:
    """Reference for g_operator: the closed form of one pair in numpy complex
    scalars, over the Python complex det."""
    a, b = basis.u
    c, d = basis.v
    cj = np.conj
    det = det_scalar(basis)
    detb = det.conjugate()
    G = np.zeros((4, 4), dtype=complex)
    G[0, 2] = 1j * (b * cj(d) - d * cj(b)) / det
    G[0, 3] = 1j * (c * cj(b) - a * cj(d)) / det
    G[1, 2] = 1j * (d * cj(a) - b * cj(c)) / det
    G[1, 3] = 1j * (a * cj(c) - c * cj(a)) / det
    G[2, 0] = 1j * (c * cj(a) - a * cj(c)) / detb
    G[2, 1] = 1j * (c * cj(b) - a * cj(d)) / detb
    G[3, 0] = 1j * (d * cj(a) - b * cj(c)) / detb
    G[3, 1] = 1j * (d * cj(b) - b * cj(d)) / detb
    return G


def assert_same_bits(got, want):
    """Equal values, dtypes and signs of zero."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def wide_pairs(rng, shape) -> np.ndarray:
    """Random pairs (u, v) of shape shape + (2, 2), entries over magnitudes e^-30 .. e^30."""
    size = shape + (2, 2)
    return (rng.normal(size=size) + 1j * rng.normal(size=size)) * np.exp(rng.uniform(-30, 30, size=size))


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


class TestStackedPairs:
    """Every Elko function that takes a Cx2Basis takes a stack of pairs, and
    each entry equals its single-pair call bit for bit."""

    @pytest.mark.parametrize("shape", [(40,), (3, 7), (1,)])
    def test_det_schur_and_g_equal_single_calls(self, rng, shape):
        z = wide_pairs(rng, shape)
        stack = Cx2Basis(u=z[..., 0, :], v=z[..., 1, :])
        det, abs_det = stack.det, stack.abs_det
        r1, r2 = schur_conditions(stack)
        G = g_operator(stack)
        eb = elko_basis(stack)
        assert G.shape == shape + (4, 4) and eb.stack().shape == shape + (4, 4)
        for k in np.ndindex(shape):
            single = Cx2Basis(u=z[k][0], v=z[k][1])
            assert_same_bits(det[k], single.det)
            assert det[k] == det_scalar(single) and type(single.det) is complex
            assert_same_bits(abs_det[k], single.abs_det)
            assert single.abs_det == abs(det_scalar(single))
            assert (r1[k], r2[k]) == schur_conditions(single)
            assert type(schur_conditions(single)[0]) is float
            assert_same_bits(G[k], g_operator(single))
            assert_same_bits(G[k], g_operator_scalar(single))
            single_eb = elko_basis(single)
            for name in ("u_plus", "u_minus", "v_plus", "v_minus"):
                assert_same_bits(getattr(eb, name)[k], getattr(single_eb, name))

    def test_elko_pair_formula(self, rng):
        z = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
        up, um = elko_pair(z)
        for k in range(30):
            top = THETA @ np.conj(z[k])
            assert np.array_equal(up[k], np.concatenate([1j * top, z[k]]))
            assert np.array_equal(um[k], np.concatenate([-1j * top, z[k]]))

    def test_schur_condition_family(self, rng):
        x = rng.normal(size=(25, 5))
        lam, b = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
        d = x[:, 4] * b
        stack = schur_condition_family(lam, b, d)
        for k in range(25):
            single = schur_condition_family(complex(lam[k]), complex(b[k]), complex(d[k]))
            assert_same_bits(stack.u[k], single.u)
            assert_same_bits(stack.v[k], single.v)
            assert_same_bits(single.u, np.array([lam[k] * np.conj(b[k]), b[k]]))

    def test_rotation_commutant_residual(self, rng):
        G = g_operator(Cx2Basis(u=rng.normal(size=(12, 2)) + 0.3j, v=rng.normal(size=(12, 2)) - 0.1j))
        stacked = rotation_commutant_residual(G, samples=20, seed=4)
        assert stacked.shape == (12,)
        for k in range(12):
            assert stacked[k] == rotation_commutant_residual(G[k], samples=20, seed=4)
            assert stacked[k] == commutant_residual_scalar(G[k], 20, 4)
        assert rotation_commutant_residual(G.reshape(3, 4, 4, 4), samples=20, seed=4).shape == (3, 4)

    @pytest.mark.parametrize("samples", [0, 1, 20])
    def test_seeded_rotations_match_scalar_draw_loop(self, samples):
        rng = np.random.default_rng(13)
        theta = []
        for _ in range(samples):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            theta.append(rng.uniform(0.0, np.pi) * d)
        want = rotation_matrix(rep_generators(HalfInt(1)), np.reshape(theta, (samples, 3)))
        got = _seeded_rotations(samples, 13)
        assert got.shape == (samples, 4, 4)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [0, 4, 9])
    @pytest.mark.parametrize(
        "u, v, calls",
        [
            ([1.0, 0.0], [2.0, 0.0], ("g", "elko", "require")),  # degenerate
            ([1e200, 1e200], [1e200, -1e200], ("g", "elko", "require", "schur")),  # det overflows
            ([1.5e308, 0.0], [0.0, 1.0 + 1.0j], ("g", "elko", "require", "schur")),  # |det| overflows
            ([1e154, 1e154], [1e154, 1e154j], ("g",)),  # the entries of G overflow
            ([1e300, 1e300j], [1e300, 0.0], ("schur",)),  # r1 overflows
            ([1e200, 0.0], [1e200j, 0.0], ("schur",)),  # r2 overflows
        ],
    )
    def test_one_bad_pair_raises_as_its_single_call(self, rng, k, u, v, calls):
        z = rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2))
        z[:, :, 0] += 3.0  # keeps |det| well above the 1e-10 floor
        z[:, 1, 1] += 3.0
        z[k] = [u, v]
        stack = Cx2Basis(u=z[:, 0], v=z[:, 1])
        single = Cx2Basis(u=np.array(u), v=np.array(v))
        fns = {
            "g": g_operator,
            "elko": elko_basis,
            "require": lambda b: b.require_nondegenerate(),
            "schur": schur_conditions,
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in calls:
                with pytest.raises(ValueError) as one:
                    fns[name](single)
                with pytest.raises(ValueError) as many:
                    fns[name](stack)
                assert str(many.value) == str(one.value)
            # the rest of the stack is fine
            rest = Cx2Basis(u=np.delete(z[:, 0], k, axis=0), v=np.delete(z[:, 1], k, axis=0))
            g_operator(rest)
            schur_conditions(rest)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf * 1j])
    def test_one_non_finite_entry_rejected(self, bad):
        u = np.ones((6, 2), dtype=complex)
        v = np.ones((6, 2), dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            Cx2Basis(u=np.array([1.0, bad]), v=v[0])
        u[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Cx2Basis(u=u, v=v)

    def test_shape_rule(self):
        with pytest.raises(ValueError, match="shape"):
            Cx2Basis(u=np.ones((3, 2)), v=np.ones((4, 2)))
        with pytest.raises(ValueError, match="shape"):
            Cx2Basis(u=np.ones(3), v=np.ones(3))


def g_operator_suite_loop(seed: int, samples: int = 100) -> float:
    """Reference for checks.g_operator_suite's relations residual: one
    candidate pair at a time."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < samples:
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        basis = Cx2Basis(u=z[:2], v=z[2:])
        if abs(det_scalar(basis)) < 0.05:
            continue
        done += 1
        G = g_operator_scalar(basis)
        worst = max(worst, float(np.linalg.norm(G @ G - np.eye(4))))
        up, um = elko_pair(basis.u)
        vp, vm = elko_pair(basis.v)
        for w, s in ((up, 1), (um, -1), (vp, 1), (vm, -1)):
            worst = max(worst, float(np.linalg.norm(G @ w - s * w) / np.linalg.norm(w)))
    return worst


def elko_nogo_suite_loop(seed: int) -> dict:
    """Reference for the seeded parts of checks.elko_nogo_suite: one pair at
    a time, in Python and numpy complex scalars."""
    rng = np.random.default_rng(seed)
    worst_det = 0.0
    for _ in range(100):
        lam = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        d = rng.normal() * b
        basis = Cx2Basis(u=np.array([lam * np.conj(b), b]), v=np.array([lam * np.conj(d), d]))
        assert max(schur_conditions_numpy(basis)) <= 1e-12
        worst_det = max(worst_det, abs(det_scalar(basis)))
    equivalence = []
    for _ in range(200):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        basis = Cx2Basis(u=z[:2] / np.linalg.norm(z[:2]), v=z[2:] / np.linalg.norm(z[2:]))
        if abs(det_scalar(basis)) < 0.1:
            continue
        comm = commutant_residual_scalar(g_operator_scalar(basis), 20, seed)
        equivalence.append((comm, max(schur_conditions_numpy(basis))))
    scalar_comm = 0.0
    for _ in range(5):
        blocks = rng.normal(size=4) + 1j * rng.normal(size=4)
        G = np.zeros((4, 4), dtype=complex)
        G[:2, :2] = blocks[0] * np.eye(2)
        G[:2, 2:] = blocks[1] * np.eye(2)
        G[2:, :2] = blocks[2] * np.eye(2)
        G[2:, 2:] = blocks[3] * np.eye(2)
        scalar_comm = max(scalar_comm, commutant_residual_scalar(G, 20, seed))
    return {"worst_det": worst_det, "equivalence": equivalence, "scalar_comm": scalar_comm}


class TestSuitesMatchScalarLoops:
    """The stacked Elko suites draw as the one-pair-at-a-time loops did and
    report the same residuals bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_g_operator_suite(self, seed):
        report = checks.g_operator_suite(seed)
        assert report["max_residuals"]["relations"] == g_operator_suite_loop(seed)

    @pytest.mark.parametrize("seed", [0, 6, 48])
    def test_elko_nogo_suite(self, seed, monkeypatch):
        seen = []

        def recording(G, **kwargs):
            seen.append(rotation_commutant_residual(G, **kwargs))
            return seen[-1]

        monkeypatch.setattr(checks.elko, "rotation_commutant_residual", recording)
        report = checks.elko_nogo_suite(seed, mc_samples=10)
        ref = elko_nogo_suite_loop(seed)
        assert report["max_residuals"]["constructed_family_det"] == ref["worst_det"]
        assert report["max_residuals"]["block_scalar_commutant"] == ref["scalar_comm"]
        # the first commutant call is the equivalence sweep
        assert seen[0].tolist() == [comm for comm, _ in ref["equivalence"]]
        assert report["schur_equivalence_ok"]


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

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.nan, "finite and non-zero"),
            (np.inf, "finite and non-zero"),
            (complex(np.nan, 1.0), "finite and non-zero"),
            (0.0, "finite and non-zero"),
            (1e300, "overflows"),
            # |a|^4 overflows in the norm of the square
            (1e80j, "overflows"),
        ],
    )
    @pytest.mark.parametrize("slot", ["a", "b"])
    def test_domain(self, bad, match, slot):
        rep = rep_generators(HalfInt(1))
        good = np.array([1.0, 0.5j, -2.0])
        stack = good.copy().astype(complex)
        stack[1] = bad
        cases = [
            lambda: antilinear_rest_map(*((bad, 1.0) if slot == "a" else (1.0, bad))),
            lambda: antilinear_family(rep, *((bad, 1.0) if slot == "a" else (1.0, bad))),
            lambda: antilinear_family(rep, *((stack, good) if slot == "a" else (good, stack))),
        ]
        for call in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=match):
                    call()

    def test_rest_map_matches_block_form(self, rng):
        """The rest matrix equals np.block([[a Theta, 0], [0, b Theta]]) bit
        for bit, singly and as a stack."""
        Z = np.zeros((2, 2), dtype=complex)
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        stack = antilinear_family(rep_generators(HalfInt(1)), a, b).rest_matrix
        for k in range(6):
            block = np.block([[a[k] * THETA, Z], [Z, b[k] * THETA]])
            assert np.array_equal(antilinear_rest_map(a[k], b[k]).matrix.view(float), block.view(float))
            assert np.array_equal(stack[k].view(float), block.view(float))

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
        with pytest.raises(ValueError, match="mass"):
            helicity_origin_discontinuity(np.array([1.0, 2.0]))
