import re
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
    _pauli_dot,
    _random_vectors,
    boost_matrix,
    check_mass,
    covariance_residual,
    is_fully_kinematic,
    parity_family,
    parity_operator,
    random_transform_pairs,
    rapidity_from_momentum,
    rotation_matrix,
    sample_momenta,
    scaled_swap_family,
    stack_pairs,
)
from spinkin.linalg import _FLOAT_TINY, _ONE_SIGMA
from spinkin.reps import (
    RAPIDITY_MAX,
    HalfInt,
    LorentzTransform,
    adjugate_power,
    rep_generators,
    symmetric_power,
    tensor_rep_generators,
    vector_boost,
    vector_rotation,
)

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

    @pytest.mark.parametrize(
        "m, p, match",
        [
            # the image has p_z = 1.07e163: finite, but its |p/m|^2 and so
            # its E, formed from p/m, overflow
            (1.0, (0.0, 0.0, 1e150), "energy overflows"),
            # the image's p_z overflows in the product with the boost
            (1e300, (0.0, 0.0, 1e300), "finite"),
        ],
    )
    def test_transform_refuses_an_image_past_the_float_range_without_warning(self, m, p, match):
        q = FourMomentum(m, p)
        raises_without_warning(lambda: q.transform(vector_boost((0.0, 0.0, RAPIDITY_MAX))), match)

    @pytest.mark.parametrize("stretch, refused", [(1e-4, True), (1e-12, False)])
    def test_off_shell_verdict_does_not_depend_on_the_mass_scale(self, stretch, refused):
        """transform judges the off-shell gap relative to the energy, so the
        time component stretched by 1 + stretch at one p/m gets one verdict
        at every mass scale."""
        L = LorentzTransform(np.diag([1.0 + stretch, 1.0, 1.0, 1.0]))
        for m in (1e-6, 1.0, 1e6):
            q = FourMomentum(m, (0.3 * m, -0.2 * m, 0.5 * m))
            if refused:
                with pytest.raises(ValueError, match="off-shell"):
                    q.transform(L)
            else:
                assert q.transform(L).m == m

    def test_transform_preserves_shell(self, rng):
        q = FourMomentum(2.0, (0.4, -0.3, 1.0))
        L = vector_boost(rng.normal(size=3))
        q2 = q.transform(L)
        assert q2.m == q.m
        assert np.allclose(L.apply(q.four_vector), q2.four_vector, rtol=1e-12)


def inline_E(q):
    """The reference for FourMomentum.E: p/m formed inline, at each call."""
    with np.errstate(over="ignore"):
        u = q.p / q.m[..., None]
        return q.m * np.sqrt(1.0 + np.vecdot(u, u))


def inline_four_vector(q):
    return np.concatenate([inline_E(q)[..., None], q.p], axis=-1)


def inline_lower(q):
    return np.concatenate([inline_E(q)[..., None], -q.p], axis=-1)


def inline_rapidity(q):
    """The reference for rapidity_from_momentum: p/m and |p/m| formed inline."""
    with np.errstate(over="ignore"):
        u = q.p / q.m[..., None]
        un = np.sqrt(np.vecdot(u, u, keepdims=True))
        phi = np.arcsinh(un)
    assert phi.max(initial=0.0) <= RAPIDITY_MAX
    return phi * (u / np.maximum(un, _FLOAT_TINY))


def inline_parity(rep, q):
    """The reference for parity_operator: E/m and p/m formed inline and
    concatenated."""
    with np.errstate(over="ignore"):
        u = q.p / q.m[..., None]
        e = np.sqrt(1.0 + np.vecdot(u, u, keepdims=True))
    S = symmetric_power(_pauli_dot(np.concatenate([e, u], axis=-1), _ONE_SIGMA), rep.j)
    return rep.lift(S, adjugate_power(S), swap=True)


def assert_same_bits(a, b):
    assert type(a) is type(b)
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def four_velocity_cases():
    """Seeded stacks, single momenta, views, transform images (a pair stack
    and its views) and masses from 1e-300 to 1e300."""
    batch = momenta(29, 1000)
    rep = rep_generators(HalfInt(1))
    boosts, _ = stack_pairs(random_transform_pairs(rep, np.random.default_rng(s), 1000)[0] for s in (1, 2))
    image = batch.transform(boosts)
    m = np.logspace(-300, 300, 61)
    u = _random_vectors(np.random.default_rng(30), np.full(61, 5.0))
    scales = FourMomentum(m, m[:, None] * u)
    singles = [FourMomentum(1.0, (0.0, 0.0, 0.0)), FourMomentum(2.5, (-1.0, 0.4, 3.0))]
    singles += [FourMomentum(mk, pk) for mk, pk in zip(scales.m, scales.p)]
    views = [batch[0], batch[999], image[1], image[1][7], image[0][3:9], scales[60]]
    return [batch, image, scales, *singles, *views]


class TestFourVelocity:
    """A FourMomentum forms (E/m, p/m) and |p/m|^2 once; every reader
    returns, bit for bit, what the inline references above return."""

    def test_energy_and_four_vectors(self):
        cases = four_velocity_cases()
        # p/m overflows: E, four_vector and lower read inf, as inline
        cases.append(FourMomentum(1e-300, (0.0, 1e10, 0.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for q in cases:
                assert_same_bits(q.E, inline_E(q))
                assert_same_bits(q.four_vector, inline_four_vector(q))
                assert_same_bits(q.lower, inline_lower(q))

    @pytest.mark.parametrize("build", [rep_generators, tensor_rep_generators])
    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_parity_operator_and_rapidity(self, build, twice):
        rep = build(HalfInt(twice))
        for q in four_velocity_cases():
            assert_same_bits(parity_operator(rep, q), inline_parity(rep, q))
            assert_same_bits(rapidity_from_momentum(q), inline_rapidity(q))

    def test_read_only_and_shared_with_views(self):
        batch = momenta(31, 20)
        image = batch.transform(vector_boost((0.2, 0.0, -0.4)))
        for q in (batch, image, FourMomentum(1.0, (0.1, 0.2, 0.3))):
            for field in (q._w, q._u2):
                assert not field.flags.writeable
                with pytest.raises(ValueError):
                    field[..., 0] = 7.0
        for k in (0, 7, slice(2, 5)):
            view = batch[k]
            assert np.shares_memory(view._w, batch._w) and np.shares_memory(view._u2, batch._u2)
            assert not view._w.flags.writeable and not view._u2.flags.writeable


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
        B = q._derived[("boost", rep.j.twice, False)]
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
    """call() raises ValueError, and no warning is raised on the way; returns
    the refusal's ExceptionInfo."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match) as refusal:
            call()
    return refusal


# each edge input and the kinds of Lorentz parameter that refuse it
LORENTZ_EDGE = {
    "nan": ((np.nan, 0.0, 0.0), {"boost", "rotation"}),
    "inf": ((np.inf, 0.0, 0.0), {"boost", "rotation"}),
    "-inf": ((0.0, -np.inf, 0.0), {"boost", "rotation"}),
    "1e200": ((1e200, 0.0, 0.0), {"boost", "rotation"}),
    "one ulp past the rapidity cap": ((0.0, 0.0, np.nextafter(RAPIDITY_MAX, np.inf)), {"boost"}),
    # |theta|^2 is finite below sqrt(float max) = 1.34e154 and overflows above
    "1.3e154": ((1.3e154, 0.0, 0.0), {"boost"}),
    "1.5e154": ((0.0, 1.5e154, 0.0), {"boost", "rotation"}),
    "zero": ((0.0, 0.0, 0.0), set()),
    "shape (1, 2)": (np.zeros((1, 2)), {"boost", "rotation"}),
    "stack with one bad row": ([[0.1, 0.2, 0.3], [0.0, np.nan, 0.0], [0.3, 0.0, 0.0]], {"boost", "rotation"}),
}


@pytest.mark.parametrize(
    "kind, what, vector_half, spinor_half",
    [
        pytest.param("boost", "rapidity", vector_boost, boost_matrix, id="boost"),
        pytest.param("rotation", "rotation vector", vector_rotation, rotation_matrix, id="rotation"),
    ],
)
@pytest.mark.parametrize("edge", LORENTZ_EDGE)
def test_a_lorentz_pair_refuses_what_its_partner_refuses(kind, what, vector_half, spinor_half, edge):
    """Both halves of a Lorentz pair, the 4-vector transform and its spinor
    image, read one domain rule: each edge input is accepted by both, or
    refused by both with the same message, which names the parameter, and
    with no numpy warning."""
    vec, refused_by = LORENTZ_EDGE[edge]
    rep = rep_generators(HalfInt(2))
    if kind not in refused_by:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L, D = vector_half(vec), spinor_half(rep, vec)
        assert np.isfinite(L.matrix).all() and np.isfinite(D).all()
        return
    message = str(raises_without_warning(lambda: vector_half(vec), f"^{what} ").value)
    raises_without_warning(lambda: spinor_half(rep, vec), f"^{re.escape(message)}$")


class TestScaledSwapDomain:
    """A zero or non-finite a, or one whose family norms overflow, raises
    ValueError with no warning: nan would give nan residuals, inf and 1e-320
    an invalid multiply, 1.5e308 a norm of A(0) past the float range (at
    2j = 1 it is 2.1e308)."""

    BAD = [
        (np.nan, "finite and non-zero"),
        (complex(1.0, np.nan), "finite and non-zero"),
        (np.inf, "finite and non-zero"),
        (complex(0.0, -np.inf), "finite and non-zero"),
        (0.0, "finite and non-zero"),
        (1e-320, "overflows"),
        (1.5e308, "overflows"),
        (1.5e308j, "overflows"),
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
        scales = np.array([[1.0, 2.0], [1.5e308, 1.0]])
        raises_without_warning(lambda: scaled_swap_family(rep_generators(HalfInt(1)), scales), r"\[1, 0\]")

    @pytest.mark.parametrize("a", [1.0, -0.2j, 1e150, 1e-150, 1e300, 1e-300])
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

    @pytest.mark.parametrize("a", [1e305, 1e-305])
    def test_norm_overflow_once_boosted(self, a):
        """At 2j = 4 the boosted family's norms overflow for |a| near 1e305,
        although A(0)'s do not; an infinite norm would read as residual 0."""
        fam = scaled_swap_family(rep_generators(HalfInt(4)), a)
        raises_without_warning(lambda: is_fully_kinematic(fam, samples=50, tol=1e-8, seed=0), "overflow")
        rng = np.random.default_rng(0)
        q = sample_momenta(rng, 50)
        boosts, _ = random_transform_pairs(fam.rep, rng, 50)
        raises_without_warning(lambda: covariance_residual(fam, q, *boosts), "overflow")


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
