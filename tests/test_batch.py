"""A momentum batch (a FourMomentum stack of shape (N,)) is evaluated in one
stacked call that equals the loop over its single momenta, and the inverse of
every boost is eta B eta. Family, pair and spinor stacks equal their single
calls, and the suites built on them equal the one-at-a-time suites."""

import numpy as np
import pytest

from conftest import direction_draw, momenta
from spinkin import checks, elko
from spinkin.dirac import boosted_spinors, dirac_operator
from spinkin.elko import antilinear_family
from spinkin.higherspin import field_equation_residual, swap_operator_at
from spinkin.kinematics import (
    FourMomentum,
    KinematicOperatorFamily,
    boost_matrix,
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
from spinkin.linalg import anticommutator, square_residual, stack_norm
from spinkin.reps import (
    RAPIDITY_MAX,
    HalfInt,
    LorentzTransform,
    rep_generators,
    tensor_rep_generators,
    vector_boost,
    vector_rotation,
)

SPINS = (1, 2, 3, 4)
REPS = (rep_generators, tensor_rep_generators)


def sample_momenta_loop(rng, n):
    """Reference for sample_momenta: the draws one FourMomentum at a time,
    with m log-uniform in [0.1, 10] and |p| uniform in [0, 5m]."""
    out = []
    lo, hi = np.log(0.1), np.log(10.0)
    for _ in range(n):
        m = float(np.exp(rng.uniform(lo, hi)))
        d = direction_draw(rng)
        pn = rng.uniform(0.0, 5.0 * m)
        out.append(FourMomentum(m, tuple(pn * d)))
    return out


def random_vector_loop(rng, max_length):
    """Reference for the draws of random_transform_pairs: one vector at a
    time."""
    d = direction_draw(rng)
    return rng.uniform(0.0, max_length) * d


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
    """FourMomentum stacks of shape (N,), as sample_momenta draws them."""

    @pytest.mark.parametrize("seed, n", [(0, 1), (7, 40), (3, 0)])
    def test_same_draws_as_per_momentum_loop(self, seed, n):
        rng_batch, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = sample_momenta(rng_batch, n)
        ref = sample_momenta_loop(rng_loop, n)
        assert batch.m.shape == (n,) and len(batch) == n
        for k, q in enumerate(batch):
            assert q.m.shape == () and q.m == ref[k].m and np.array_equal(q.p, ref[k].p)
        assert np.array_equal(batch.m, [q.m for q in ref])
        assert np.array_equal(batch.p, np.reshape([q.p for q in ref], (n, 3)))
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
            FourMomentum(np.array(m), np.array(p))


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
        """||P^2 - I||_F, the on-shell contraction identity, on a stack."""
        rep = rep_generators(HalfInt(twice))
        batch = momenta(75 + twice, 30)

        def residual(q):
            P = parity_operator(rep, q)
            return stack_norm(P @ P - np.eye(rep.dim), 2)

        assert_rows_equal(residual(batch), [residual(q) for q in batch])

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


@pytest.mark.parametrize("n", [0, 1, 17])
def test_transform_pairs_match_scalar_draw_loop(n):
    rep = rep_generators(HalfInt(2))
    rng_pairs, rng_loop = np.random.default_rng(40 + n), np.random.default_rng(40 + n)
    (Lb, Db), (Lr, Dr) = random_transform_pairs(rep, rng_pairs, n)
    # the default boost rapidity cap of the pairs is 1.5
    draws = np.array([[random_vector_loop(rng_loop, 1.5), random_vector_loop(rng_loop, np.pi)] for _ in range(n)])
    draws = draws.reshape(n, 2, 3)
    assert Db.shape == Dr.shape == (n, 6, 6)
    assert np.array_equal(Db, boost_matrix(rep, draws[:, 0]))
    assert np.array_equal(Lb.matrix, vector_boost(draws[:, 0]).matrix)
    assert np.array_equal(Dr, rotation_matrix(rep, draws[:, 1]))
    assert np.array_equal(Lr.matrix, vector_rotation(-draws[:, 1]).matrix)
    assert rng_pairs.uniform() == rng_loop.uniform()


def test_single_pairs_match_scalar_draw_loop():
    rep = rep_generators(HalfInt(1))
    rng, rng_loop = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(20):
        (Lb, Db), (Lr, Dr) = random_transform_pairs(rep, rng, 1)
        phi = random_vector_loop(rng_loop, 1.5)
        assert np.array_equal(Db[0], boost_matrix(rep, phi))
        assert np.array_equal(Lb.matrix[0], vector_boost(phi).matrix)
        theta = random_vector_loop(rng_loop, np.pi)
        assert np.array_equal(Dr[0], rotation_matrix(rep, theta))
        assert np.array_equal(Lr.matrix[0], vector_rotation(-theta).matrix)


@pytest.mark.parametrize("twice", SPINS)
def test_one_type_for_every_stack_shape(twice):
    """One momentum (shape ()), a stack (N,) and a stack (k, N) of the same
    momenta give E, lower, the rapidity and P(q) bit for bit entry for
    entry, and transform by a (k, N) pair stack returns a (k, N) stack."""
    rep = rep_generators(HalfInt(twice))
    batch = momenta(180 + twice, 6)
    grid = FourMomentum(np.stack([batch.m, batch.m[::-1]]), np.stack([batch.p, batch.p[::-1]]))
    assert grid.m.shape == (2, 6) and len(grid) == 2 and grid[1].m.shape == (6,)

    def values(q):
        return q.E, q.lower, rapidity_from_momentum(q), parity_operator(rep, q)

    at_grid = values(grid)
    for k, row in enumerate(grid):
        at_row = values(row)
        for n in range(6):
            single = FourMomentum(float(grid.m[k, n]), tuple(grid.p[k, n].tolist()))
            for g, r, s in zip(at_grid, at_row, values(single)):
                assert np.array_equal(g[k, n], s) and np.array_equal(r[n], s)

    L = stack_pairs(random_transform_pairs(rep, np.random.default_rng(twice), 6))[0]
    images = batch.transform(L)
    assert images.m.shape == (2, 6) and images.p.shape == (2, 6, 3)
    for k in range(2):
        for n in range(6):
            one = batch[n].transform(LorentzTransform(L.matrix[k, n]))
            assert images[k][n].m == one.m and np.array_equal(images[k][n].p, one.p)
    with pytest.raises(TypeError):
        len(batch[0])


def test_transform_pairs_draw_as_alternating_pair_calls():
    """One call with n = 12 draws the stream of twelve calls with n = 1."""
    rep = rep_generators(HalfInt(2))
    boosts, rotations = random_transform_pairs(rep, np.random.default_rng(5), 12)
    rng = np.random.default_rng(5)
    for k in range(12):
        for (L, D), (L1, D1) in zip((boosts, rotations), random_transform_pairs(rep, rng, 1)):
            assert np.array_equal(D[k], D1[0])
            assert np.allclose(L.matrix[k], L1.matrix[0], rtol=1e-14, atol=1e-15)


class TestStackValidation:
    def test_one_momentum_above_the_cap(self):
        single = FourMomentum(1e-12, (0.0, 0.0, 1e3))
        batch = FourMomentum(np.array([1.0, single.m]), np.array([[0.0, 0.0, 0.5], single.p]))
        rep = rep_generators(HalfInt(1))
        for call in (rapidity_from_momentum, lambda q: parity_operator(rep, q), lambda q: swap_operator_at(1, q)):
            with pytest.raises(ValueError, match="cap"):
                call(single)
            with pytest.raises(ValueError, match="cap"):
                call(batch)

    def test_one_non_finite_momentum(self):
        with pytest.raises(ValueError, match="finite"):
            FourMomentum(1.0, (0.0, np.nan, 0.0))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                FourMomentum(np.array([1.0, 2.0]), np.array([[0.0, 0.0, 0.5], [0.0, bad, 0.0]]))

    @pytest.mark.parametrize("bad, match", [(np.nan, "finite"), (np.inf, "finite"), (RAPIDITY_MAX + 1.0, "cap")])
    def test_boost_stack_with_one_bad_rapidity(self, bad, match):
        rep = rep_generators(HalfInt(2))
        phi = np.array([[0.1, 0.2, 0.3], [0.0, 0.0, bad], [0.3, 0.0, 0.0]])
        with pytest.raises(ValueError, match=match):
            boost_matrix(rep, phi[1])
        with pytest.raises(ValueError, match=match):
            boost_matrix(rep, phi)


@pytest.mark.parametrize("twice", range(1, 9))
@pytest.mark.parametrize("make_rep", REPS)
class TestInverseRule:
    """eta anti-commutes with every K_a on both representations, so
    eta B(phi) eta = B(-phi) = B(phi)^-1; |phi| <= asinh(5) = 2.31 here, the
    cap of sample_momenta's default draws, up to 2j = 8."""

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


# scales of the scaled-swap and anti-linear family stacks below
SCALES = np.array([1.7 - 0.4j, 0.3j, -2.5, 4.0 + 1.0j])


def random_families(rep, rng, k, antilinear):
    """k families with random (not kinematic) rest matrices, as singles and
    as one stack."""
    rest = rng.normal(size=(k, rep.dim, rep.dim)) + 1j * rng.normal(size=(k, rep.dim, rep.dim))
    singles = [KinematicOperatorFamily(rep, M, antilinear) for M in rest]
    return singles, KinematicOperatorFamily(rep, rest, antilinear)


def family_stacks(rep, rng):
    """(singles, stack) pairs: scaled swaps, random linear families and, at
    spin 1/2, anti-linear and random anti-linear families."""
    out = [
        ([scaled_swap_family(rep, a) for a in SCALES], scaled_swap_family(rep, SCALES)),
        random_families(rep, rng, 3, antilinear=False),
    ]
    if rep.j == HalfInt(1):
        b = 0.5 * SCALES[::-1]
        out.append(([antilinear_family(rep, x, y) for x, y in zip(SCALES, b)], antilinear_family(rep, SCALES, b)))
        out.append(random_families(rep, rng, 3, antilinear=True))
    return out


def anticommutator_residual_loop(fam):
    """Reference for anticommutator_residual on one family: one norm per
    boost generator."""
    M = fam.rest_matrix
    worst = 0.0
    for Ka in fam.rep.K:
        if fam.antilinear:
            r = np.linalg.norm(Ka @ M - M @ np.conj(Ka))
        else:
            r = np.linalg.norm(anticommutator(M, Ka))
        worst = max(worst, float(r))
    return worst


@pytest.mark.parametrize("twice", SPINS)
class TestFamilyStack:
    """A stack of k families evaluates as its k single families, bit for
    bit; family axes lead and momentum axes follow."""

    def test_scaled_swap_rest_matrix_is_the_block_form(self, twice):
        rep = rep_generators(HalfInt(twice))
        d = rep.j.block_dim
        Z, I = np.zeros((d, d), dtype=complex), np.eye(d, dtype=complex)
        stack = scaled_swap_family(rep, SCALES).rest_matrix
        for k, a in enumerate(SCALES):
            block = np.block([[Z, a * I], [(1.0 / a) * I, Z]])
            assert np.array_equal(scaled_swap_family(rep, a).rest_matrix.view(float), block.view(float))
            assert np.array_equal(stack[k].view(float), block.view(float))

    @pytest.mark.parametrize(
        "method, trailing",
        [(lambda fam, q: fam.matrix_at(q), 2), (lambda fam, q: square_residual(fam.matrix_at(q), fam.antilinear), 0)],
        ids=["matrix_at", "squared_at"],
    )
    def test_matrix_and_square(self, twice, method, trailing, rng):
        """A(q), and the residual of its square, of a family stack equal
        those of each family, bit for bit."""
        rep = rep_generators(HalfInt(twice))
        batch = momenta(130 + twice, 20)
        for singles, stack in family_stacks(rep, rng):
            got = method(stack, batch)
            assert got.shape == (len(singles), len(batch), rep.dim, rep.dim)[: 2 + trailing]
            assert_rows_equal(got, [method(f, batch) for f in singles])
            assert_rows_equal(method(stack, batch[7]), [method(f, batch[7]) for f in singles])

    def test_anticommutator_residual(self, twice, rng):
        rep = rep_generators(HalfInt(twice))
        for singles, stack in family_stacks(rep, rng):
            for f in singles:
                assert f.anticommutator_residual() == anticommutator_residual_loop(f)
            assert stack.anticommutator_residual() == max(f.anticommutator_residual() for f in singles)

    def test_covariance_pair_stack(self, twice, rng):
        rep = rep_generators(HalfInt(twice))
        batch = momenta(140 + twice, 25)
        pairs = random_transform_pairs(rep, np.random.default_rng(twice), len(batch))
        pairs += random_transform_pairs(rep, np.random.default_rng(twice + 10), len(batch))[:1]
        L, D = stack_pairs(pairs)
        assert L.matrix.shape == (3, len(batch), 4, 4) and D.shape == (3, len(batch), rep.dim, rep.dim)
        fam = parity_family(rep)
        got = covariance_residual(fam, batch, L, D)
        assert got.shape == (3, len(batch))
        assert_rows_equal(got, [covariance_residual(fam, batch, *pair) for pair in pairs])
        for singles, stack in family_stacks(rep, rng):
            got = covariance_residual(stack, batch, L, D)
            assert got.shape == (len(singles), 3, len(batch))
            for k, f in enumerate(singles):
                assert_rows_equal(got[k], [covariance_residual(f, batch, *pair) for pair in pairs])

    def test_transform_by_pair_stack(self, twice):
        batch = momenta(150 + twice, 12)
        pairs = random_transform_pairs(rep_generators(HalfInt(twice)), np.random.default_rng(twice), 12)
        images = batch.transform(stack_pairs(pairs)[0])
        assert images.m.shape == (2, 12) and images.p.shape == (2, 12, 3)
        for k, (L, _) in enumerate(pairs):
            one = batch.transform(L)
            assert np.array_equal(images[k].m, one.m)
            assert np.array_equal(images[k].p, one.p)

    def test_field_equation_spinor_stack(self, twice):
        j = HalfInt(twice)
        batch = momenta(160 + twice, 20)
        basis = boosted_spinors(j, batch)
        for ws, sign in ((basis.u, +1), (basis.v, -1)):
            got = field_equation_residual(j, np.array(ws), batch, sign)
            assert got.shape == (j.block_dim, len(batch))
            assert_rows_equal(got, [field_equation_residual(j, w, batch, sign) for w in ws])

    def test_is_fully_kinematic(self, twice, rng):
        """A stack reports the largest residual of each condition over its
        families, on the same draws as each single call."""
        rep = rep_generators(HalfInt(twice))
        stacks = family_stacks(rep, rng)
        # a stack whose families pass and fail: parity with random families
        rest = np.concatenate([rep.eta[None], stacks[1][1].rest_matrix])
        stacks.append(([parity_family(rep)] + stacks[1][0], KinematicOperatorFamily(rep, rest)))
        for singles, stack in stacks:
            report = is_fully_kinematic(stack, samples=10, tol=1e-8, seed=3)
            reports = [is_fully_kinematic(f, samples=10, tol=1e-8, seed=3) for f in singles]
            for key, value in report["max_residuals"].items():
                assert value == max(r["max_residuals"][key] for r in reports)
            for flag in ("squares_to_identity", "anticommutes", "covariant", "pass"):
                assert report[flag] == all(r[flag] for r in reports)


def product_form_conjugated(fam, D, M):
    """Reference for conjugated: the products with eta as a matrix and an
    explicit conjugate transpose of D."""
    Dt = np.swapaxes(D, -1, -2)
    return D @ (M @ fam.rep.eta) @ (Dt if fam.antilinear else np.conj(Dt)) @ fam.rep.eta


@pytest.mark.parametrize("twice", SPINS)
def test_conjugated_equals_product_form(twice, rng):
    """conjugated applies eta by index and conjugates in place, with results
    equal to the product form bit for bit: single matrices, stacks of 70,
    pair stacks and family stacks."""
    rep = rep_generators(HalfInt(twice))
    phi = rapidity_from_momentum(momenta(170 + twice, 70))
    (_, Db), (_, Dr) = random_transform_pairs(rep, rng, 70)
    Ds = [boost_matrix(rep, phi), Db, Dr, np.stack([Db, Dr]), Db[5]]
    for singles, stack in family_stacks(rep, rng):
        for fam in singles[:2] + [stack]:
            for D in Ds:
                M = fam._spread(fam.rest_matrix, D.ndim - 2)
                want = product_form_conjugated(fam, D, M)
                got = fam.conjugated(D, M)
                assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("twice", SPINS)
def test_is_fully_kinematic_equals_its_public_parts(twice):
    """is_fully_kinematic evaluates A(q) once for the square and the
    covariance; its residuals equal square_residual of matrix_at and
    covariance_residual on the same draws."""
    rep = rep_generators(HalfInt(twice))
    for fam in (parity_family(rep), scaled_swap_family(rep, SCALES)):
        report = is_fully_kinematic(fam, samples=12, tol=1e-8, seed=5)
        rng = np.random.default_rng(5)
        batch = sample_momenta(rng, 12)
        pairs = stack_pairs(random_transform_pairs(rep, rng, 12))
        square = np.max(square_residual(fam.matrix_at(batch), fam.antilinear))
        assert report["max_residuals"]["square"] == float(square)
        assert report["max_residuals"]["covariance"] == float(np.max(covariance_residual(fam, batch, *pairs)))


# The three suites as they were before the family, pair and spinor stacks:
# one family, one pair stack and one spinor per call. Kept as the reference
# the stacked suites must reproduce exactly.


def field_equation_suite_loop(seed, per_spin=25, tol=1e-9):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for twice in (1, 2, 3, 4):
        j = HalfInt(twice)
        batch = sample_momenta(rng, per_spin)
        basis = boosted_spinors(j, batch)
        for ws, sign in ((basis.u, +1), (basis.v, -1)):
            for w in ws:
                worst = max(worst, float(field_equation_residual(j, w, batch, sign).max(initial=0.0)))
    return {
        "per_spin_samples": per_spin,
        "max_residuals": {"field_equation": worst},
        "tolerances": {"field_equation": tol},
        "pass": bool(worst <= tol),
    }


def covariance_suite_loop(seed, per_spin=100, tol=1e-8):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for twice in (1, 2, 3):
        rep = rep_generators(HalfInt(twice))
        fam = parity_family(rep)
        batch = sample_momenta(rng, per_spin)
        for L, D in random_transform_pairs(rep, rng, per_spin):
            worst = max(worst, float(covariance_residual(fam, batch, L, D).max(initial=0.0)))
    return {
        "per_spin_samples": per_spin,
        "max_residuals": {"covariance": worst},
        "tolerances": {"covariance": tol},
        "pass": bool(worst <= tol),
    }


def kinematic_checker_suite_loop(seed, tol=1e-8):
    rng = np.random.default_rng(seed)
    rep_half = rep_generators(HalfInt(1))
    parity_ok = True
    for twice in (1, 2):
        rep = rep_generators(HalfInt(twice))
        report = is_fully_kinematic(parity_family(rep), samples=25, tol=tol, seed=seed + twice)
        parity_ok = parity_ok and report["pass"]
    swap_ok = True
    for _ in range(10):
        a = rng.uniform(0.2, 5.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        report = is_fully_kinematic(scaled_swap_family(rep_half, a), samples=10, tol=tol, seed=seed)
        swap_ok = swap_ok and report["pass"]
    q = FourMomentum(1.0, (0.3, -0.2, 0.5))
    grid = np.logspace(-1, 1, 5)
    min_gap = np.inf
    anti_ok = True
    for amag in grid:
        for bmag in grid:
            a = amag * np.exp(1j * rng.uniform(0, 2 * np.pi))
            b = bmag * np.exp(1j * rng.uniform(0, 2 * np.pi))
            fam = elko.antilinear_family(rep_half, a, b)
            anti_ok = anti_ok and fam.anticommutator_residual() <= tol
            M = fam.matrix_at(q)
            gap = np.linalg.norm(M @ np.conj(M) - np.eye(4))
            min_gap = min(min_gap, float(gap))
    return {
        "parity_fully_kinematic": bool(parity_ok),
        "scaled_swap_fully_kinematic": bool(swap_ok),
        "antilinear_anticommutes": bool(anti_ok),
        "max_residuals": {"antilinear_square_gap_min": float(min_gap)},
        "tolerances": {"conditions": tol, "antilinear_square_gap_min": 1.0},
        "pass": bool(parity_ok and swap_ok and anti_ok and min_gap >= 1.0),
    }


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "suite, loop",
    [
        (checks.field_equation_suite, field_equation_suite_loop),
        (checks.covariance_suite, covariance_suite_loop),
        (checks.kinematic_checker_suite, kinematic_checker_suite_loop),
    ],
    ids=["field_equation", "covariance", "kinematic_checker"],
)
def test_stacked_suite_matches_loop(suite, loop, seed):
    assert suite(seed) == loop(seed)
