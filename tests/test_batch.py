"""A momentum batch is evaluated in one stacked call that equals the loop over
its single momenta, and the inverse of every boost is eta B eta."""

import numpy as np
import pytest

from conftest import momenta
from spinkin.dirac import boosted_spinors, dirac_operator
from spinkin.elko import antilinear_family
from spinkin.higherspin import contraction_identity_residual, field_equation_residual, swap_operator_at
from spinkin.kinematics import (
    FourMomentum,
    MomentumBatch,
    boost_matrix,
    covariance_residual,
    parity_family,
    parity_operator,
    random_boost_pair,
    random_rotation_pair,
    random_transform_pairs,
    rapidity_from_momentum,
    rotation_matrix,
    sample_momenta,
    scaled_swap_family,
)
from spinkin.reps import RAPIDITY_MAX, HalfInt, LorentzTransform, rep_generators, tensor_rep_generators

SPINS = (1, 2, 3, 4)
REPS = (rep_generators, tensor_rep_generators)


def sample_momenta_loop(rng, n, mass_range=(0.1, 10.0), momentum_factor=5.0):
    """Reference for sample_momenta: the draws one FourMomentum at a time."""
    out = []
    lo, hi = np.log(mass_range[0]), np.log(mass_range[1])
    for _ in range(n):
        m = float(np.exp(rng.uniform(lo, hi)))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        pn = rng.uniform(0.0, momentum_factor * m)
        out.append(FourMomentum(m, tuple(pn * d)))
    return out


def assert_rows_equal(stacked, singles):
    """Each entry of a stacked result equals the single call bit for bit."""
    assert len(stacked) == len(singles)
    for got, want in zip(stacked, singles):
        assert np.array_equal(got, want)


def old_conjugated(fam, q):
    """Reference for matrix_at: B M B^-1 (anti-linear: B M conj(B)^-1) with a
    numerical inverse."""
    B = boost_matrix(fam.rep, rapidity_from_momentum(q))
    return B @ fam.rest_matrix @ np.linalg.inv(np.conj(B) if fam.antilinear else B)


class TestMomentumBatch:
    @pytest.mark.parametrize(
        "seed, n, kwargs",
        [(0, 1, {}), (7, 40, {}), (11, 25, {"mass_range": (0.5, 2.0), "momentum_factor": 2.0})],
    )
    def test_same_draws_as_per_momentum_loop(self, seed, n, kwargs):
        rng_batch, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = sample_momenta(rng_batch, n, **kwargs)
        ref = sample_momenta_loop(rng_loop, n, **kwargs)
        assert isinstance(batch, MomentumBatch) and len(batch) == n
        assert list(batch) == ref
        assert all(batch[k] == ref[k] for k in range(n))
        assert np.array_equal(batch.m, [q.m for q in ref]) and np.array_equal(batch.p, [q.p for q in ref])
        # the stream is left where the loop leaves it
        assert rng_batch.uniform() == rng_loop.uniform()

    def test_energy_and_read_only(self):
        batch = momenta(3, 10)
        assert np.array_equal(batch.E, [q.E for q in batch])
        with pytest.raises(ValueError):
            batch.p[0, 0] = 1.0
        with pytest.raises(ValueError):
            batch.m[0] = 1.0

    @pytest.mark.parametrize(
        "m, p",
        [
            ([1.0, -1.0], [[0, 0, 0], [0, 0, 0]]),
            ([1.0, np.nan], [[0, 0, 0], [0, 0, 0]]),
            ([1.0, 2.0], [[0, 0, 0], [0, np.inf, 0]]),
            ([1.0, 2.0], [[0, 0, 0]]),
            ([[1.0]], [[0, 0, 0]]),
            ([1.0 + 0j], [[0, 0, 0]]),
        ],
    )
    def test_mass_rule_and_finiteness_over_the_batch(self, m, p):
        with pytest.raises(ValueError):
            MomentumBatch(np.array(m), np.array(p))


@pytest.mark.parametrize("twice", SPINS)
class TestStackedEqualsLoop:
    def test_rapidity(self, twice):
        batch = momenta(30 + twice, 40)
        assert_rows_equal(rapidity_from_momentum(batch), [rapidity_from_momentum(q) for q in batch])

    @pytest.mark.parametrize("make_rep", REPS)
    def test_boost_matrix(self, twice, make_rep):
        rep = make_rep(HalfInt(twice))
        phi = rapidity_from_momentum(momenta(40 + twice, 40))
        assert_rows_equal(boost_matrix(rep, phi), [boost_matrix(rep, x) for x in phi])

    @pytest.mark.parametrize("make_rep", REPS)
    def test_rotation_matrix(self, twice, make_rep, rng):
        rep = make_rep(HalfInt(twice))
        theta = rng.normal(size=(40, 3))
        assert_rows_equal(rotation_matrix(rep, theta), [rotation_matrix(rep, x) for x in theta])

    def test_parity_operator(self, twice):
        rep = rep_generators(HalfInt(twice))
        batch = momenta(50 + twice, 40)
        assert_rows_equal(parity_operator(rep, batch), [parity_operator(rep, q) for q in batch])

    def test_boosted_spinors_and_field_equation(self, twice):
        j = HalfInt(twice)
        batch = momenta(60 + twice, 30)
        stacked = boosted_spinors(j, batch)
        singles = [boosted_spinors(j, q) for q in batch]
        for k in range(j.block_dim):
            assert_rows_equal(stacked.u[k], [b.u[k] for b in singles])
            assert_rows_equal(stacked.v[k], [b.v[k] for b in singles])
            r_u = field_equation_residual(j, stacked.u[k], batch, +1)
            r_v = field_equation_residual(j, stacked.v[k], batch, -1)
            assert_rows_equal(r_u, [field_equation_residual(j, b.u[k], q, +1) for b, q in zip(singles, batch)])
            assert_rows_equal(r_v, [field_equation_residual(j, b.v[k], q, -1) for b, q in zip(singles, batch)])
            assert r_u.max() <= 1e-9 and r_v.max() <= 1e-9

    def test_contraction_identity(self, twice):
        batch = momenta(75 + twice, 30)
        stacked = contraction_identity_residual(twice, batch)
        assert_rows_equal(stacked, [contraction_identity_residual(twice, q) for q in batch])

    def test_swap_operator(self, twice):
        j = HalfInt(twice)
        batch = momenta(70 + twice, 30)
        assert_rows_equal(swap_operator_at(j, batch), [swap_operator_at(j, q) for q in batch])

    def test_covariance_residual(self, twice):
        rep = rep_generators(HalfInt(twice))
        fam = parity_family(rep)
        batch = momenta(80 + twice, 30)
        for L, D in random_transform_pairs(rep, np.random.default_rng(twice), len(batch)):
            stacked = covariance_residual(fam, batch, L, D)
            singles = [covariance_residual(fam, q, LorentzTransform(L.matrix[k]), D[k]) for k, q in enumerate(batch)]
            assert_rows_equal(stacked, singles)
            assert stacked.max() <= 1e-9


def test_dirac_operator_stack():
    batch = momenta(91, 40)
    assert_rows_equal(dirac_operator(batch), [dirac_operator(q) for q in batch])


def test_transform_pairs_draw_as_alternating_pair_calls():
    rep = rep_generators(HalfInt(2))
    boosts, rotations = random_transform_pairs(rep, np.random.default_rng(5), 12)
    rng = np.random.default_rng(5)
    for k in range(12):
        for (L, D), (L1, D1) in ((boosts, random_boost_pair(rep, rng)), (rotations, random_rotation_pair(rep, rng))):
            assert np.array_equal(D[k], D1)
            assert np.allclose(L.matrix[k], L1.matrix, rtol=1e-14, atol=1e-15)


class TestStackValidation:
    def test_one_momentum_above_the_cap(self):
        single = FourMomentum(1e-12, (0.0, 0.0, 1e3))
        batch = MomentumBatch(np.array([1.0, single.m]), np.array([[0.0, 0.0, 0.5], single.p]))
        rep = rep_generators(HalfInt(1))
        for call in (rapidity_from_momentum, lambda q: parity_operator(rep, q), lambda q: swap_operator_at(1, q)):
            with pytest.raises(ValueError, match="cap"):
                call(single)
            with pytest.raises(ValueError, match="cap"):
                call(batch)

    def test_one_non_finite_momentum(self):
        with pytest.raises(ValueError, match="finite"):
            FourMomentum(1.0, (0.0, np.nan, 0.0))
        with pytest.raises(ValueError, match="finite"):
            MomentumBatch(np.array([1.0, 1.0]), np.array([[0.0, 0.0, 0.5], [0.0, np.nan, 0.0]]))

    @pytest.mark.parametrize("bad, match", [(np.nan, "finite"), (np.inf, "finite"), (RAPIDITY_MAX + 1.0, "cap")])
    def test_boost_stack_with_one_bad_rapidity(self, bad, match):
        rep = rep_generators(HalfInt(2))
        phi = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, bad], [0.3, 0.0, 0.0]])
        with pytest.raises(ValueError, match=match):
            boost_matrix(rep, phi[1])
        with pytest.raises(ValueError, match=match):
            boost_matrix(rep, phi)


@pytest.mark.parametrize("twice", SPINS)
@pytest.mark.parametrize("make_rep", REPS)
class TestInverseRule:
    """eta anti-commutes with every K_a on both representations, so
    eta B(phi) eta = B(-phi) = B(phi)^-1; |phi| <= asinh(5) = 2.31 here, the
    cap of sample_momenta's default draws."""

    def phis(self, twice):
        phi = rapidity_from_momentum(momenta(100 + twice, 60))
        assert np.linalg.norm(phi, axis=-1).max() <= np.arcsinh(5.0)
        return phi

    def test_eta_conjugation_is_the_negative_boost(self, twice, make_rep):
        rep = make_rep(HalfInt(twice))
        for phi in self.phis(twice):
            B_neg = boost_matrix(rep, -phi)
            inv = rep.eta @ boost_matrix(rep, phi) @ rep.eta
            assert np.linalg.norm(inv - B_neg) <= 1e-13 * np.linalg.norm(B_neg)

    def test_eta_conjugation_inverts(self, twice, make_rep):
        rep = make_rep(HalfInt(twice))
        B = boost_matrix(rep, self.phis(twice))
        inv = rep.eta @ B @ rep.eta
        # relative to the size of the factors, as roundoff in a product is
        err = np.linalg.norm(B @ inv - np.eye(rep.dim), axis=(-2, -1))
        assert np.all(err <= 1e-13 * np.linalg.norm(B, axis=(-2, -1)) * np.linalg.norm(inv, axis=(-2, -1)))


@pytest.mark.parametrize("twice", SPINS)
def test_matrix_at_matches_numerical_inverse(twice):
    rep = rep_generators(HalfInt(twice))
    families = [parity_family(rep), scaled_swap_family(rep, 1.7 - 0.4j)]
    if twice == 1:
        families.append(antilinear_family(rep, 0.8 + 0.3j, -1.2j))
    batch = momenta(120 + twice, 40)
    for fam in families:
        stacked = fam.matrix_at(batch)
        for k, q in enumerate(batch):
            old = old_conjugated(fam, q)
            assert np.linalg.norm(stacked[k] - old) <= 1e-12 * np.linalg.norm(old)
