import warnings
import weakref
from functools import partial

import numpy as np
import pytest

from conftest import momenta
from spinkin import kinematics
from spinkin.dirac import boosted_spinors
from spinkin.elko import antilinear_family
from spinkin.kinematics import (
    FourMomentum,
    KinematicOperatorFamily,
    _boost_at,
    _directions,
    _random_vectors,
    boost_matrix,
    check_mass,
    covariance_residual,
    is_fully_kinematic,
    parity_family,
    parity_operator,
    random_transform_pairs,
    rapidity_from_momentum,
    sample_momenta,
    scaled_swap_family,
)
from spinkin.reps import HalfInt, LorentzTransform, rep_generators, tensor_rep_generators, vector_boost

ABS_TOL = 1e-10


class TestFourMomentum:
    def test_on_shell_by_construction(self):
        q = FourMomentum(1.0, (0.0, 0.0, 0.75))
        assert q.E == pytest.approx(1.25, rel=1e-15)
        assert q.E**2 - np.dot(q.p, q.p) == pytest.approx(q.m**2, rel=1e-12)

    @pytest.mark.parametrize("m", [1e-170, 1e300])
    def test_energy_at_the_scale_of_its_mass(self, m):
        """m^2 and |p|^2 underflow at 1e-170 and overflow at 1e300; E is
        formed from p/m, so it is sqrt(2) m at both scales, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = FourMomentum(m, (m, 0.0, 0.0)).E
        assert E == pytest.approx(np.sqrt(2.0) * m, rel=1e-15, abs=0.0)

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

    def test_transform_refuses_an_overflowing_energy_without_warning(self):
        """E is inf past |p|/m ~ 1.3e154: transform refuses it before the
        product with the Lorentz matrix, which would warn of inf * 0."""
        q = FourMomentum(1e-300, (1.0, 0.0, 0.0))
        raises_without_warning(lambda: q.transform(vector_boost((0.0, 0.0, 0.5))), "energy overflows")

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

    @pytest.mark.parametrize("m", [1e-170, 1e300])
    def test_momentum_at_the_scale_of_its_mass(self, m):
        """|p|^2 underflows to 0 at 1e-170 and overflows at 1e300; p/m = z-hat
        does neither, so both give asinh(1) z-hat."""
        phi = rapidity_from_momentum(FourMomentum(m, (0.0, 0.0, m)))
        assert np.allclose(phi, [0.0, 0.0, np.arcsinh(1.0)], rtol=0.0, atol=1e-15)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            rapidity_from_momentum(FourMomentum(1e-12, (0.0, 0.0, 1e3)))

    @pytest.mark.parametrize("m, p", [(1.0, (1e200, 0.0, 0.0)), (1e-300, (1e10, 0.0, 0.0))])
    def test_overflowing_momentum_raises_without_warning(self, m, p):
        """|p/m|^2 overflows in the first case and p/m in the second; the cap
        refuses the infinite rapidity, with no warning on the way. The parity
        operator names its own cap, that of B(2 phi)."""
        q = FourMomentum(m, p)
        j = HalfInt(2)
        boost_refusal = "rapidity inf exceeds the overflow cap 30.0"
        parity_refusal = "rapidity must be finite and within the parity overflow cap 15.0, got inf"
        for call, message in (
            (rapidity_from_momentum, boost_refusal),
            (partial(boosted_spinors, j), boost_refusal),
            (partial(parity_operator, rep_generators(j)), parity_refusal),
        ):
            raises_without_warning(lambda: call(q), f"^{message}$")


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


class TestOperatorMemo:
    """A FourMomentum memoises the read-only operators evaluated at it; any
    other momentum object computes afresh."""

    @pytest.mark.parametrize("build", [rep_generators, tensor_rep_generators])
    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_repeat_call_returns_the_same_read_only_operator(self, build, twice):
        rep = build(HalfInt(twice))
        for q in (momenta(5, 3), momenta(6, 1)[0]):
            P = parity_operator(rep, q)
            assert parity_operator(rep, q) is P
            assert parity_operator(build(HalfInt(twice)), q) is P
            assert not P.flags.writeable
            with pytest.raises(ValueError):
                P[..., 0, 0] = 7.0

    def test_equal_momentum_view_and_image_compute_afresh(self):
        rep = rep_generators(HalfInt(2))
        batch = momenta(8, 4)
        P = parity_operator(rep, batch)
        twin = FourMomentum(batch.m, batch.p)
        image = batch.transform(LorentzTransform(np.eye(4)))
        for other, want in ((twin, P), (image, P), (batch[1], P[1])):
            assert not other._derived
            fresh = parity_operator(rep, other)
            assert fresh is not P and not np.shares_memory(fresh, P)
            assert np.array_equal(fresh, want)
        # and a view of a memoised stack does not read the stack's memo
        view = batch[2]
        assert parity_operator(rep, view) is parity_operator(rep, view)
        assert parity_operator(rep, batch) is P

    @pytest.mark.parametrize("twice", [1, 2])
    def test_each_representation_has_its_own_operator(self, twice):
        q = momenta(9, 5)
        direct, tensor = rep_generators(HalfInt(twice)), tensor_rep_generators(HalfInt(twice))
        P, S = parity_operator(direct, q), parity_operator(tensor, q)
        assert P is not S and P.shape[-1] == 2 * (twice + 1) and S.shape[-1] == (twice + 1) ** 2
        assert parity_operator(direct, q) is P and parity_operator(tensor, q) is S
        # at 2j = 1 both are 4x4 and differ
        if twice == 1:
            assert not np.array_equal(P, S)
        B = _boost_at(direct, q)
        assert B is not P and _boost_at(direct, q) is B
        assert np.array_equal(B, boost_matrix(direct, rapidity_from_momentum(q)))

    @pytest.mark.parametrize("twice", [1, 2])
    def test_matrix_at_reads_the_memoised_boost(self, monkeypatch, twice):
        """A family evaluated at a momentum shares the one B(phi(q)) memoised
        on it, and forms no boost of its own; the parity family serves the
        memoised P(q) itself."""
        rep = rep_generators(HalfInt(twice))
        fam = scaled_swap_family(rep, 2.0 - 1.0j)
        q = momenta(11, 4)
        A = fam.matrix_at(q)
        B = q._derived[("boost", rep.j, False)]
        assert B is _boost_at(rep, q)
        monkeypatch.setattr(kinematics, "boost_matrix", None)
        assert parity_family(rep).matrix_at(q) is parity_operator(rep, q)
        assert np.array_equal(fam.matrix_at(q), A)

    @pytest.mark.parametrize(
        "p, call",
        [
            # |phi| = 15.5 is a valid boost but beyond the parity operator's cap
            ((0.0, 0.0, np.sinh(15.5)), lambda q: parity_operator(rep_generators(HalfInt(2)), q)),
            ((0.0, np.sinh(31.0), 0.0), lambda q: boosted_spinors(HalfInt(2), q)),
            ((0.0, np.sinh(31.0), 0.0), lambda q: _boost_at(rep_generators(HalfInt(1)), q)),
        ],
    )
    def test_refused_momentum_leaves_the_memo_empty(self, p, call):
        q = FourMomentum(np.array([1.0, 1.0]), np.array([[0.1, 0.2, 0.3], p]))
        with pytest.raises(ValueError, match="cap"):
            call(q)
        assert q._derived == {}

    def test_memo_is_freed_with_the_momentum(self):
        q = momenta(10, 3)
        P = parity_operator(rep_generators(HalfInt(1)), q)
        ref = weakref.ref(q)
        del q
        assert ref() is None and not P.flags.writeable


class TestCovariance:
    def test_identity_transform_gives_zero(self):
        rep = rep_generators(HalfInt(1))
        fam = parity_family(rep)
        q = FourMomentum(1.0, (0.2, 0.1, -0.4))
        L = LorentzTransform(np.eye(4))
        assert covariance_residual(fam, q, L, np.eye(4, dtype=complex)) < 1e-14

    @pytest.mark.parametrize("twice", [1, 2, 3])
    def test_parity_under_boosts_and_rotations(self, twice, rng):
        rep = rep_generators(HalfInt(twice))
        fam = parity_family(rep)
        for q in momenta(23 + twice, 20):
            # one boost pair, then one rotation pair, each a stack of one
            for L, D in random_transform_pairs(rep, rng, 1):
                assert covariance_residual(fam, q, L, D)[0] < 1e-9


class TestFullyKinematicChecker:
    def test_parity_passes_all_conditions(self):
        rep = rep_generators(HalfInt(1))
        report = is_fully_kinematic(parity_family(rep), samples=25, tol=1e-8, seed=3)
        assert report["pass"]
        assert report["max_residuals"]["square"] < 1e-10

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_parity_all_spins_100_momenta(self, twice):
        rep = rep_generators(HalfInt(twice))
        report = is_fully_kinematic(parity_family(rep), samples=100, tol=1e-7, seed=17 + twice)
        assert report["pass"]

    def test_antilinear_family_fails_only_involution(self):
        rep = rep_generators(HalfInt(1))
        fam = antilinear_family(rep, 1.0, 1.0)
        report = is_fully_kinematic(fam, samples=10, tol=1e-8, seed=4)
        assert report["anticommutes"]
        assert not report["squares_to_identity"]
        assert report["max_residuals"]["square"] >= 1.0

    def test_scaled_swap_family_passes(self):
        rep = rep_generators(HalfInt(1))
        report = is_fully_kinematic(scaled_swap_family(rep, 2.0), samples=10, tol=1e-8, seed=5)
        assert report["pass"]

    @pytest.mark.parametrize("twice", [1, 2])
    def test_parity_family_has_the_parity_cap(self, twice):
        """The parity family serves P(q), so it refuses |phi| = 15.5, a valid
        boost past P(q)'s cap, with the parity operator's message."""
        fam = parity_family(rep_generators(HalfInt(twice)))
        q = FourMomentum(1.0, (0.0, 0.0, np.sinh(15.5)))
        with pytest.raises(ValueError, match=r"^rapidity must be finite and within the parity overflow cap 15\.0, got 15\.500$"):
            fam.matrix_at(q)

    @pytest.mark.parametrize(
        "rep, rest",
        [
            (rep_generators(HalfInt(2)), np.eye(4)),
            (tensor_rep_generators(HalfInt(2)), np.eye(6)),
            (rep_generators(HalfInt(1)), np.ones((3, 4, 5))),
            (rep_generators(HalfInt(1)), np.ones(4)),
        ],
    )
    def test_rest_matrix_of_another_dimension_is_refused(self, rep, rest):
        """A rest matrix must be (..., dim, dim) for its representation: a 4x4
        matrix on the 6-dimensional spin-1 space failed inside numpy's
        reshape, on its first residual, before it was refused here."""
        with pytest.raises(ValueError, match=rf"^expected rest matrices of shape \(\.\.\., {rep.dim}, {rep.dim}\)"):
            KinematicOperatorFamily(rep, rest)

    def test_rejects_zero_samples(self):
        rep = rep_generators(HalfInt(1))
        with pytest.raises(ValueError):
            is_fully_kinematic(parity_family(rep), samples=0, tol=1e-8, seed=0)

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
            fam = scaled_swap_family(rep_generators(HalfInt(1)), a)
            report = is_fully_kinematic(fam, samples=10, tol=1e-8, seed=5)
        assert report["pass"]

    @pytest.mark.parametrize("twice", [1, 2])
    def test_refuses_the_tensor_representation(self, twice):
        """offdiag(a I, a^-1 I) is a (j,0)+(0,j) matrix: on the tensor
        product (dimension 4 at 2j = 1, 9 at 2j = 2) it would be checked
        against generators of another space."""
        raises_without_warning(lambda: scaled_swap_family(tensor_rep_generators(HalfInt(twice)), 2.0), "tensor")

    @pytest.mark.parametrize("a", [1e152, 1e-152])
    def test_norm_overflow_once_boosted(self, a):
        """At 2j = 4 the boosted family's norms overflow for |a| near 1e152,
        although A(0)'s do not; an infinite norm would read as residual 0."""
        fam = scaled_swap_family(rep_generators(HalfInt(4)), a)
        raises_without_warning(lambda: is_fully_kinematic(fam, samples=50, tol=1e-8, seed=0), "overflow")


class TestSampling:
    def test_deterministic_for_seed(self):
        a = momenta(42, 10)
        b = momenta(42, 10)
        assert all(x.m == y.m and np.array_equal(x.p, y.p) for x, y in zip(a, b))

    def test_distribution_bounds(self):
        for q in momenta(13, 200):
            assert 0.1 <= q.m <= 10.0
            assert np.linalg.norm(q.p) <= 5.0 * q.m

    def test_directions_uniform_on_the_sphere(self):
        """10^5 seeded directions have unit length, and the moments of the
        uniform law on the sphere hold within 5 sigma: each component has
        mean 0 (variance 1/3) and mean square 1/3 (E[x^4] = 1/5, so the
        square has variance 1/5 - 1/9 = 4/45)."""
        n = 100_000
        d = _directions(np.random.default_rng(17).random((n, 2)))
        assert np.abs(np.linalg.norm(d, axis=-1) - 1.0).max() <= 4 * np.finfo(float).eps
        assert np.abs(d.mean(axis=0)).max() <= 5 * np.sqrt(1 / 3 / n)
        assert np.abs((d**2).mean(axis=0) - 1 / 3).max() <= 5 * np.sqrt(4 / 45 / n)

    @pytest.mark.parametrize(
        "draw",
        [
            sample_momenta,
            lambda rng, n: _random_vectors(rng, np.full((n, 2), 1.5)),
            lambda rng, n: random_transform_pairs(rep_generators(HalfInt(2)), rng, n),
        ],
        ids=["sample_momenta", "_random_vectors", "random_transform_pairs"],
    )
    def test_one_generator_call_at_any_count(self, draw):
        counts = []
        for n in (1, 1000):
            rng = CountingGenerator(np.random.default_rng(n))
            draw(rng, n)
            counts.append(rng.calls)
        assert counts == [1, 1]

    def test_sample_k_replays_from_its_stream_offset(self):
        """Momentum k reads words 4k to 4k + 3 of the stream and transform
        pair k words 6k to 6k + 5, so a fresh generator advanced to that
        offset redraws sample k alone, bit for bit."""
        rep = rep_generators(HalfInt(2))
        batch = momenta(23, 9)
        (_, boosts), (_, rotations) = random_transform_pairs(rep, np.random.default_rng(23), 9)
        for k in (0, 4, 8):
            rng = np.random.default_rng(23)
            rng.bit_generator.advance(4 * k)
            one = sample_momenta(rng, 1)
            assert one.m[0] == batch.m[k] and np.array_equal(one.p[0], batch.p[k])
            rng = np.random.default_rng(23)
            rng.bit_generator.advance(6 * k)
            (_, boost), (_, rotation) = random_transform_pairs(rep, rng, 1)
            assert np.array_equal(boost[0], boosts[k]) and np.array_equal(rotation[0], rotations[k])


class CountingGenerator:
    """A numpy Generator that counts the calls made to its methods."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted
