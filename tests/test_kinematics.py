import warnings

import numpy as np
import pytest

from conftest import momenta
from spinkin.elko import antilinear_family
from spinkin.kinematics import (
    FourMomentum,
    boost_matrix,
    check_mass,
    covariance_residual,
    is_fully_kinematic,
    parity_family,
    parity_operator,
    random_boost_pair,
    random_rotation_pair,
    rapidity_from_momentum,
    scaled_swap_family,
)
from spinkin.reps import HalfInt, rep_generators, vector_boost

ABS_TOL = 1e-10


class TestFourMomentum:
    def test_on_shell_by_construction(self):
        q = FourMomentum(1.0, (0.0, 0.0, 0.75))
        assert q.E == pytest.approx(1.25, rel=1e-15)
        assert q.E**2 - np.dot(q.p, q.p) == pytest.approx(q.m**2, rel=1e-12)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            FourMomentum(0.0, (0, 0, 0))
        with pytest.raises(ValueError):
            FourMomentum(-1.0, (0, 0, 0))

    # one mass rule for a single momentum and for a stack: the masses of a
    # stack, of any shape, come after the scalar masses
    @pytest.mark.parametrize(
        "m",
        [
            1.0, 2, np.float64(1.5), np.float32(2.0), np.int64(3), np.array(0.5), True,
            np.array([1.0, 2.0]), np.full((2, 3), 0.5), np.array([1, 3]),
        ],
    )
    def test_mass_rule_accepts(self, m):
        assert np.array_equal(check_mass(m), m) and check_mass(m).dtype == float
        q = FourMomentum(m, np.broadcast_to((0.1, 0.2, 0.3), np.shape(m) + (3,)))
        assert q.m.shape == np.shape(m) and np.array_equal(q.m, m)

    @pytest.mark.parametrize(
        "m",
        [
            0.0, 0, -1.0, np.nan, np.inf, -np.inf, np.float64(np.nan), np.float32(np.inf), np.array(-1.0), False,
            np.array([1.0]), np.array([1.0, 2.0]), 1.0 + 0j, np.complex128(2.0),
            np.array([1.0, -1.0]), np.array([1.0, np.nan]), np.array([[1.0]]), np.array([1.0 + 0j]),
        ],
    )
    def test_mass_rule_rejects(self, m):
        """A mass that is not real, positive and finite, in any entry of a
        stack, is refused by the rule; FourMomentum also refuses masses whose
        shape is not that of the 3-momenta less their trailing axis."""
        with pytest.raises(ValueError, match="mass"):
            FourMomentum(m, (0.0, 0.0, 0.0))
        # [1], [1, 2] and [[1]] are valid masses of a stack, refused above for
        # the shape of p alone
        if not (np.ndim(m) and np.isrealobj(m) and np.all(np.asarray(m) > 0)):
            with pytest.raises(ValueError, match="mass"):
                check_mass(m)

    @pytest.mark.parametrize("p", [(np.nan, 0, 0), (0, np.inf, 0), (0, 0, -np.inf)])
    def test_rejects_non_finite_momentum(self, p):
        with pytest.raises(ValueError):
            FourMomentum(1.0, p)

    def test_transform_preserves_shell(self, rng):
        q = FourMomentum(2.0, (0.4, -0.3, 1.0))
        L = vector_boost(rng.normal(size=3))
        q2 = q.transform(L)
        assert q2.m == q.m
        assert np.allclose(L.apply(q.four_vector), q2.four_vector, rtol=1e-12)


class TestRapidity:
    def test_rest(self):
        assert np.allclose(rapidity_from_momentum(FourMomentum(1.0, (0, 0, 0))), np.zeros(3))

    def test_ln2_example(self):
        q = FourMomentum(1.0, (0.0, 0.0, 0.75))
        phi = rapidity_from_momentum(q)
        assert np.allclose(phi, [0.0, 0.0, np.log(2.0)], atol=1e-15)
        assert np.cosh(np.linalg.norm(phi)) == pytest.approx(q.E / q.m, rel=1e-14)

    def test_depends_on_p_over_m_only(self):
        phi = rapidity_from_momentum(FourMomentum(2.0, (0.0, 0.0, 1.5)))
        assert np.allclose(phi, [0.0, 0.0, np.log(2.0)], atol=1e-15)

    def test_collinear_additivity(self):
        # boost the momentum, rapidities add along the shared axis
        q = FourMomentum(1.0, (0.0, 0.0, 0.75))
        extra = 0.6
        q2 = q.transform(vector_boost((0.0, 0.0, extra)))
        phi2 = rapidity_from_momentum(q2)
        assert phi2[2] == pytest.approx(np.log(2.0) + extra, rel=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            rapidity_from_momentum(FourMomentum(1e-12, (0.0, 0.0, 1e3)))


class TestBoostMatrix:
    def test_identity_at_zero(self):
        rep = rep_generators(HalfInt(1))
        assert np.allclose(boost_matrix(rep, (0, 0, 0)), np.eye(4))

    def test_half_angle_blocks(self):
        # phi = ln 2 along z: top block diag(sqrt 2, 1/sqrt 2)
        rep = rep_generators(HalfInt(1))
        B = boost_matrix(rep, (0.0, 0.0, np.log(2.0)))
        s2 = np.sqrt(2.0)
        assert np.allclose(B[:2, :2], np.diag([s2, 1 / s2]), atol=1e-14)
        phi = np.log(2.0)
        assert np.cosh(phi / 2) == pytest.approx(1.0606601717798212, rel=1e-15)
        assert np.sinh(phi / 2) == pytest.approx(0.35355339059327373, rel=1e-15)
        sigma_z = np.diag([1.0, -1.0])
        expected_top = np.cosh(phi / 2) * np.eye(2) + sigma_z * np.sinh(phi / 2)
        assert np.allclose(B[:2, :2], expected_top, atol=1e-14)

    @pytest.mark.parametrize("twice", [1, 2, 3])
    def test_unit_determinant(self, twice, rng):
        rep = rep_generators(HalfInt(twice))
        phi = rng.normal(size=3)
        assert np.linalg.det(boost_matrix(rep, phi)) == pytest.approx(1.0, rel=1e-11)


class TestParityOperator:
    def test_rest_frame_is_eta(self):
        rep = rep_generators(HalfInt(2))
        P = parity_operator(rep, FourMomentum(1.0, (0, 0, 0)))
        assert np.allclose(P, rep.eta, atol=1e-15)

    def test_two_evaluation_orders_agree(self):
        # B(2 phi) eta == B(phi) eta B(phi)^-1: the anticommutation pushed
        # through the exponential
        for q in momenta(7, 25):
            rep = rep_generators(HalfInt(2))
            phi = rapidity_from_momentum(q)
            B = boost_matrix(rep, phi)
            direct = boost_matrix(rep, 2 * phi) @ rep.eta
            conjugated = B @ rep.eta @ np.linalg.inv(B)
            assert np.linalg.norm(direct - conjugated) < 1e-9 * np.linalg.norm(direct)

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_involution_trace_det(self, twice):
        rep = rep_generators(HalfInt(twice))
        det_expected = (-1.0) ** rep.j.block_dim
        for q in momenta(11 + twice, 20):
            P = parity_operator(rep, q)
            assert np.linalg.norm(P @ P - np.eye(rep.dim)) < 1e-7
            assert abs(np.trace(P)) < 1e-8 * np.linalg.norm(P, 2) * rep.dim
            assert np.linalg.det(P) == pytest.approx(det_expected, abs=1e-7)

    def test_spin_one_example(self):
        q = FourMomentum(1.0, (0.0, 0.0, 0.75))
        rep = rep_generators(HalfInt(2))
        P = parity_operator(rep, q)
        assert np.linalg.norm(P @ P - np.eye(6)) < ABS_TOL

    @pytest.mark.parametrize("twice", [1, 2])
    def test_defining_property_momentum_reflection(self, twice, rng):
        # P(q) psi(q) = eta psi(-q) for psi(q) = B(phi) psi(0)
        rep = rep_generators(HalfInt(twice))
        for q in momenta(97 + twice, 15):
            phi = rapidity_from_momentum(q)
            P = parity_operator(rep, q)
            psi0 = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
            psi_q = boost_matrix(rep, phi) @ psi0
            psi_neg = boost_matrix(rep, -phi) @ psi0
            assert np.linalg.norm(P @ psi_q - rep.eta @ psi_neg) < 1e-9 * np.linalg.norm(psi_q)


class TestCovariance:
    def test_identity_transform_gives_zero(self):
        rep = rep_generators(HalfInt(1))
        fam = parity_family(rep)
        q = FourMomentum(1.0, (0.2, 0.1, -0.4))
        from spinkin.reps import LorentzTransform

        L = LorentzTransform(np.eye(4))
        assert covariance_residual(fam, q, L, np.eye(4, dtype=complex)) < 1e-14

    @pytest.mark.parametrize("twice", [1, 2, 3])
    def test_parity_under_boosts_and_rotations(self, twice, rng):
        rep = rep_generators(HalfInt(twice))
        fam = parity_family(rep)
        for q in momenta(23 + twice, 20):
            L, D = random_boost_pair(rep, rng)
            assert covariance_residual(fam, q, L, D) < 1e-9
            L, D = random_rotation_pair(rep, rng)
            assert covariance_residual(fam, q, L, D) < 1e-9


class TestFullyKinematicChecker:
    def test_parity_passes_all_conditions(self):
        rep = rep_generators(HalfInt(1))
        report = is_fully_kinematic(parity_family(rep), samples=25, tol=1e-8, seed=3)
        assert report.fully_kinematic
        assert report.max_residuals["square"] < 1e-10

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_parity_all_spins_100_momenta(self, twice):
        rep = rep_generators(HalfInt(twice))
        report = is_fully_kinematic(parity_family(rep), samples=100, tol=1e-7, seed=17 + twice)
        assert report.fully_kinematic

    def test_antilinear_family_fails_only_involution(self):
        rep = rep_generators(HalfInt(1))
        fam = antilinear_family(rep, 1.0, 1.0)
        report = is_fully_kinematic(fam, samples=10, tol=1e-8, seed=4)
        assert report.anticommutes
        assert not report.squares_to_identity
        assert report.max_residuals["square"] >= 1.0

    def test_scaled_swap_family_passes(self):
        rep = rep_generators(HalfInt(1))
        report = is_fully_kinematic(scaled_swap_family(rep, 2.0), samples=10, tol=1e-8, seed=5)
        assert report.fully_kinematic

    def test_rejects_zero_samples(self):
        rep = rep_generators(HalfInt(1))
        with pytest.raises(ValueError):
            is_fully_kinematic(parity_family(rep), samples=0)

    def test_scaled_swap_rejects_zero(self):
        with pytest.raises(ValueError):
            scaled_swap_family(rep_generators(HalfInt(1)), 0.0)


def raises_without_warning(call, match):
    """call() raises ValueError, and no warning is raised on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


class TestScaledSwapDomain:
    """A zero or non-finite a, or one whose family norms overflow, raises
    ValueError with no warning: nan would give nan residuals, inf and 1e-320
    an invalid multiply, 1e300 an overflow in the norm."""

    BAD = [
        (np.nan, "finite and non-zero"),
        (complex(1.0, np.nan), "finite and non-zero"),
        (np.inf, "finite and non-zero"),
        (complex(0.0, -np.inf), "finite and non-zero"),
        (0.0, "finite and non-zero"),
        (1e-320, "overflows"),
        (1e300, "overflows"),
        (1e300j, "overflows"),
    ]

    @pytest.mark.parametrize("twice", [1, 4])
    @pytest.mark.parametrize("a, match", BAD)
    def test_single_value(self, twice, a, match):
        raises_without_warning(lambda: scaled_swap_family(rep_generators(HalfInt(twice)), a), match)

    @pytest.mark.parametrize("index", [0, 3])
    @pytest.mark.parametrize("a, match", BAD)
    def test_one_entry_of_a_stack(self, index, a, match):
        scales = np.array([2.0, 0.5j, -1.0, 3.0 - 1.0j], dtype=complex)
        scales[index] = a
        raises_without_warning(lambda: scaled_swap_family(rep_generators(HalfInt(1)), scales), match)

    def test_stack_index_is_reported(self):
        scales = np.array([[1.0, 2.0], [1e300, 1.0]])
        raises_without_warning(lambda: scaled_swap_family(rep_generators(HalfInt(1)), scales), r"\[1, 0\]")

    @pytest.mark.parametrize("a", [1.0, -0.2j, 1e150, 1e-150])
    def test_valid_scales_pass(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = is_fully_kinematic(scaled_swap_family(rep_generators(HalfInt(1)), a), samples=10, seed=5)
        assert report.fully_kinematic

    @pytest.mark.parametrize("a", [1e152, 1e-152])
    def test_norm_overflow_once_boosted(self, a):
        """At 2j = 4 the boosted family's norms overflow for |a| near 1e152,
        although A(0)'s do not; an infinite norm would read as residual 0."""
        fam = scaled_swap_family(rep_generators(HalfInt(4)), a)
        raises_without_warning(lambda: is_fully_kinematic(fam, samples=50, seed=0), "overflow")


class TestSampling:
    def test_deterministic_for_seed(self):
        a = momenta(42, 10)
        b = momenta(42, 10)
        assert all(x.m == y.m and np.array_equal(x.p, y.p) for x, y in zip(a, b))

    def test_distribution_bounds(self):
        for q in momenta(13, 200):
            assert 0.1 <= q.m <= 10.0
            assert np.linalg.norm(q.p) <= 5.0 * q.m
