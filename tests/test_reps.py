import numpy as np
import pytest
import scipy.linalg

from spinkin.kinematics import (
    FourMomentum,
    boost_matrix,
    parity_operator,
    rapidity_from_momentum,
    rotation_matrix,
    sample_momenta,
)
from spinkin.linalg import anticommutator, commutator
from spinkin.reps import (
    HalfInt,
    LorentzTransform,
    RepGenerators,
    _symmetric_power_table,
    adjugate_power,
    pauli_matrices,
    rep_generators,
    spin_matrices,
    symmetric_power,
    tensor_rep_generators,
    vector_boost,
    vector_rotation,
)

ABS_TOL = 1e-10


class TestHalfInt:
    def test_basics(self):
        j = HalfInt(3)
        assert j.j == 1.5
        assert j.block_dim == 4
        assert j.dim == 8
        assert str(j) == "3/2"
        assert str(HalfInt(2)) == "1"

    @pytest.mark.parametrize("value,twice", [(0.5, 1), (1, 2), ("3/2", 3), ("2", 4), (HalfInt(1), 1)])
    def test_coerce(self, value, twice):
        assert HalfInt.coerce(value).twice == twice

    def test_rejects_non_half_integer(self):
        with pytest.raises(ValueError):
            HalfInt.coerce(0.3)
        with pytest.raises(ValueError):
            HalfInt(0)


class TestSpinMatrices:
    def test_half_gives_pauli_over_two(self):
        Jx, Jy, Jz = spin_matrices(HalfInt(1))
        sx, sy, sz = pauli_matrices()
        assert np.allclose(Jx, sx / 2) and np.allclose(Jy, sy / 2) and np.allclose(Jz, sz / 2)

    def test_spin_one_jz(self):
        _, _, Jz = spin_matrices(HalfInt(2))
        assert np.allclose(Jz, np.diag([1.0, 0.0, -1.0]))

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_commutation_and_hermiticity(self, twice):
        J = spin_matrices(HalfInt(twice))
        assert np.linalg.norm(commutator(J[0], J[1]) - 1j * J[2]) < ABS_TOL
        assert np.linalg.norm(commutator(J[1], J[2]) - 1j * J[0]) < ABS_TOL
        assert np.linalg.norm(commutator(J[2], J[0]) - 1j * J[1]) < ABS_TOL
        for a in range(3):
            assert np.linalg.norm(J[a] - J[a].conj().T) < ABS_TOL

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_casimir(self, twice):
        j = twice / 2.0
        J = spin_matrices(HalfInt(twice))
        C2 = sum(M @ M for M in J)
        assert np.allclose(C2, j * (j + 1) * np.eye(twice + 1), atol=ABS_TOL)


class TestRepGenerators:
    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_algebra_invariants(self, twice):
        rep = rep_generators(HalfInt(twice))
        eps = np.zeros((3, 3, 3))
        eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
        eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1
        for a in range(3):
            for b in range(3):
                target_J = 1j * sum(eps[a, b, c] * rep.J[c] for c in range(3))
                assert np.linalg.norm(commutator(rep.J[a], rep.J[b]) - target_J) < ABS_TOL
                assert np.linalg.norm(commutator(rep.K[a], rep.K[b]) + target_J) < ABS_TOL
            # eta anti-commutes with boosts, commutes with rotations
            assert np.linalg.norm(anticommutator(rep.eta, rep.K[a])) < ABS_TOL
            assert np.linalg.norm(commutator(rep.eta, rep.J[a])) < ABS_TOL

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_eta_is_exact_block_swap(self, twice):
        rep = rep_generators(HalfInt(twice))
        d = rep.j.block_dim
        assert np.array_equal(rep.eta @ rep.eta, np.eye(2 * d, dtype=complex))
        assert np.array_equal(rep.eta[:d, d:], np.eye(d, dtype=complex))
        assert np.array_equal(rep.eta[:d, :d], np.zeros((d, d)))

    def test_block_boost_closed_form(self):
        # j = 1/2, phi = (ln 4) z: exp(i K.phi) = diag(2, 1/2, 1/2, 2)
        rep = rep_generators(HalfInt(1))
        B = boost_matrix(rep, (0.0, 0.0, np.log(4.0)))
        assert np.allclose(B, np.diag([2.0, 0.5, 0.5, 2.0]), atol=1e-13)

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_rotation_unitary_boost_positive(self, twice, rng):
        rep = rep_generators(HalfInt(twice))
        theta = rng.normal(size=3)
        theta *= rng.uniform(0, 2 * np.pi) / np.linalg.norm(theta)
        U = rotation_matrix(rep, theta)
        assert np.linalg.norm(U @ U.conj().T - np.eye(rep.dim)) < ABS_TOL
        phi = rng.normal(size=3)
        B = boost_matrix(rep, phi)
        assert np.linalg.norm(B - B.conj().T) < ABS_TOL * np.linalg.norm(B)
        assert np.all(np.linalg.eigvalsh(B) > 0)


class TestVectorTransforms:
    def test_zero_rapidity_identity(self):
        assert np.allclose(vector_boost((0, 0, 0)).matrix, np.eye(4))

    def test_boost_of_rest_momentum(self):
        L = vector_boost((0.0, 0.0, np.log(2.0)))
        out = L.apply(np.array([1.0, 0, 0, 0]))
        assert np.allclose(out, [1.25, 0.0, 0.0, 0.75], atol=1e-14)

    def test_inverse_boost(self, rng):
        phi = rng.normal(size=3)
        L = vector_boost(phi).compose(vector_boost(-phi))
        assert np.allclose(L.matrix, np.eye(4), atol=1e-12)

    def test_metric_invariance(self, rng):
        for _ in range(20):
            L = vector_boost(rng.normal(size=3)).compose(vector_rotation(rng.normal(size=3)))
            assert L.metric_residual() < 1e-10

    def test_rotation_rodrigues(self):
        L = vector_rotation((0.0, 0.0, np.pi / 2))
        out = L.apply(np.array([0.0, 1.0, 0.0, 0.0]))
        assert np.allclose(out, [0.0, 0.0, 1.0, 0.0], atol=1e-14)

    def test_rapidity_cap(self):
        with pytest.raises(ValueError):
            vector_boost((31.0, 0.0, 0.0))

    def test_lorentz_transform_shape_check(self):
        with pytest.raises(ValueError):
            LorentzTransform(np.eye(3))


class TestTensorRep:
    def test_kz_spectrum(self):
        # j = 1/2: eigenvalues of (-i sz/2) x I + I x (i sz/2) are {0, 0, -i, +i}
        Kz = tensor_rep_generators(HalfInt(1)).K[2]
        ev = np.sort_complex(np.linalg.eigvals(Kz))
        assert np.allclose(ev, np.sort_complex(np.array([0, 0, -1j, 1j])), atol=1e-13)

    @pytest.mark.parametrize("twice", [1, 2])
    def test_kronecker_sum_commutators(self, twice):
        rep = tensor_rep_generators(HalfInt(twice))
        Jt, Kt = rep.J, rep.K
        assert np.linalg.norm(commutator(Jt[0], Jt[1]) - 1j * Jt[2]) < ABS_TOL
        assert np.linalg.norm(commutator(Kt[0], Kt[1]) + 1j * Jt[2]) < ABS_TOL
        assert np.linalg.norm(commutator(Jt[0], Kt[1]) - 1j * Kt[2]) < ABS_TOL

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_rep_generators_contract(self, twice):
        # the tensor representation is a RepGenerators whose eta is the swap
        rep = tensor_rep_generators(HalfInt(twice))
        n = (twice + 1) ** 2
        assert isinstance(rep, RepGenerators) and rep.dim == n and rep.eta.shape == (n, n)
        assert np.array_equal(rep.eta @ rep.eta, np.eye(n, dtype=complex))
        for a in range(3):
            assert np.linalg.norm(anticommutator(rep.eta, rep.K[a])) < ABS_TOL
            assert np.linalg.norm(commutator(rep.eta, rep.J[a])) < ABS_TOL


def block_rep(twice):
    """(j,0)+(0,j) generators built with np.block, one axis at a time."""
    d = twice + 1
    Z = np.zeros((d, d), dtype=complex)
    I = np.eye(d, dtype=complex)
    S = spin_matrices(HalfInt(twice))
    J = tuple(np.block([[a, Z], [Z, a]]) for a in S)
    K = tuple(np.block([[-1j * a, Z], [Z, 1j * a]]) for a in S)
    return J, K, np.block([[Z, I], [I, Z]])


def kron_tensor_rep(twice):
    """(j,0)x(0,j) generators built with np.kron, one axis at a time."""
    d = twice + 1
    I = np.eye(d, dtype=complex)
    S = spin_matrices(HalfInt(twice))
    J = tuple(np.kron(a, I) + np.kron(I, a) for a in S)
    K = tuple(-1j * np.kron(a, I) + 1j * np.kron(I, a) for a in S)
    swap = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            swap[k * d + i, i * d + k] = 1.0
    return J, K, swap


def same_bits(got, want):
    return all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


class TestCacheContract:
    """Constants are built once and shared read-only; assembled generators
    are fresh arrays on every call, equal bit for bit to the block/Kronecker
    constructions."""

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_spin_matrices_built_once_and_read_only(self, twice):
        first = spin_matrices(HalfInt(twice))
        assert all(a is b for a, b in zip(first, spin_matrices(str(HalfInt(twice)))))
        for M in first:
            with pytest.raises(ValueError):
                M[0, 0] = 7.0

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_rep_generators_equal_block_construction(self, twice):
        rep = rep_generators(HalfInt(twice))
        J, K, eta = block_rep(twice)
        assert same_bits(rep.J, J) and same_bits(rep.K, K) and same_bits((rep.eta,), (eta,))

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_tensor_rep_generators_equal_kron_construction(self, twice):
        rep = tensor_rep_generators(HalfInt(twice))
        J, K, swap = kron_tensor_rep(twice)
        assert same_bits(rep.J, J) and same_bits(rep.K, K) and same_bits((rep.eta,), (swap,))

    @pytest.mark.parametrize("build", [rep_generators, tensor_rep_generators])
    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_mutating_one_result_leaves_the_next(self, build, twice):
        rep = build(HalfInt(twice))
        for M in rep.J + rep.K + (rep.eta,):
            M[...] = 7.0
        fresh = build(HalfInt(twice))
        reference = block_rep(twice) if build is rep_generators else kron_tensor_rep(twice)
        assert same_bits(fresh.J + fresh.K + (fresh.eta,), reference[0] + reference[1] + (reference[2],))

    @pytest.mark.parametrize("build", [rep_generators, tensor_rep_generators])
    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_lift_uses_one_read_only_table(self, build, twice):
        """Every representative reads one Sym^{2j} table per spin, built once
        and read-only, and eta_index is the permutation of eta."""
        rep = build(HalfInt(twice))
        first = _symmetric_power_table(twice)
        symmetric_power(np.eye(2), rep.j)
        assert all(a is b for a, b in zip(first, _symmetric_power_table(twice)))
        for a in first + (rep.eta_index,):
            assert not a.flags.writeable
        M = np.arange(rep.dim**2, dtype=complex).reshape(rep.dim, rep.dim)
        assert np.array_equal(M @ rep.eta, M[:, rep.eta_index])
        assert np.array_equal(rep.eta @ M, M[rep.eta_index])


# every spin the kernel is tested at; the checks use 2j <= 4
KERNEL_SPINS = range(1, 9)
# sample_momenta's default draws: |p| <= 5 m, so |phi| <= asinh 5 = 2.31
PHI_MAX = np.arcsinh(5.0)


def kernel_momenta(seed, n=6):
    """n seeded momenta with |phi| <= 2.31, the last one at that cap."""
    q = sample_momenta(np.random.default_rng(seed), n - 1)
    m = np.append(q.m, 1.3)
    p = np.vstack([q.p, 5.0 * 1.3 * np.array([0.48, -0.6, 0.64])])
    return FourMomentum(m, p)


def generator_dot(gens, v):
    return np.einsum("a,aij->ij", v, np.array(gens))


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("build", [rep_generators, tensor_rep_generators])
@pytest.mark.parametrize("twice", KERNEL_SPINS)
class TestSymmetricPowerKernel:
    """Boosts, rotations and parity operators, all lifted from 2x2 matrices
    through Sym^{2j}, against the exponentials of their generators."""

    def test_boost_and_parity_match_expm(self, build, twice):
        rep = build(HalfInt(twice))
        batch = kernel_momenta(twice)
        phis = rapidity_from_momentum(batch)
        assert np.linalg.norm(phis, axis=-1).max() <= PHI_MAX
        P = parity_operator(rep, batch)
        for k, phi in enumerate(phis):
            assert rel_err(boost_matrix(rep, phi), scipy.linalg.expm(1j * generator_dot(rep.K, phi))) <= 1e-13
            want = scipy.linalg.expm(2j * generator_dot(rep.K, phi)) @ rep.eta
            assert rel_err(P[k], want) <= 1e-13

    def test_rotation_matches_expm(self, build, twice, rng):
        rep = build(HalfInt(twice))
        for _ in range(4):
            theta = rng.normal(size=3)
            theta *= rng.uniform(0.0, 2.0 * np.pi) / np.linalg.norm(theta)
            want = scipy.linalg.expm(1j * generator_dot(rep.J, theta))
            assert rel_err(rotation_matrix(rep, theta), want) <= 1e-13


@pytest.mark.parametrize("twice", KERNEL_SPINS)
def test_symmetric_power_is_a_homomorphism(twice, rng):
    """Sym(AB) = Sym(A) Sym(B) for complex 2x2 matrices of any determinant,
    and the adjugate image is the image of the adjugate."""
    j = HalfInt(twice)
    A, B = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    SA, SB = symmetric_power(A, j), symmetric_power(B, j)
    assert rel_err(SA @ SB, symmetric_power(A @ B, j)) <= 1e-13
    adj = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]])
    assert rel_err(adjugate_power(SA), symmetric_power(adj, j)) <= 1e-13


@pytest.mark.parametrize("build", [rep_generators, tensor_rep_generators])
def test_stacked_equals_single_at_2j_8(build, rng):
    rep = build(HalfInt(8))
    batch = kernel_momenta(8, n=12)
    phi, theta = rapidity_from_momentum(batch), rng.normal(size=(12, 3))
    for stacked, single in (
        (boost_matrix(rep, phi), lambda k: boost_matrix(rep, phi[k])),
        (rotation_matrix(rep, theta), lambda k: rotation_matrix(rep, theta[k])),
        (parity_operator(rep, batch), lambda k: parity_operator(rep, batch[k])),
    ):
        assert all(np.array_equal(stacked[k], single(k)) for k in range(12))


class DuckMomentum:
    """A momentum that skips FourMomentum's checks, to feed parity_operator
    values no validated momentum can hold."""

    def __init__(self, m, p):
        self.m, self.p = np.asarray(m, dtype=float), np.asarray(p, dtype=float)


@pytest.mark.parametrize(
    "p, match",
    [
        ((0.0, 0.0, np.sinh(15.0 + 1e-9)), "cap"),
        ((np.nan, 0.0, 0.0), "finite"),
        ((0.0, np.inf, 0.0), "cap"),
    ],
)
def test_parity_operator_refusals(p, match):
    """|phi| just above 15 (the cap of B(2 phi)), nan and inf are refused, as
    they were when P(q) was computed as B(2 phi) eta."""
    rep = rep_generators(HalfInt(2))
    with pytest.raises(ValueError, match=match):
        parity_operator(rep, DuckMomentum(1.0, p))
    batch = DuckMomentum(np.array([1.0, 1.0]), np.array([[0.1, 0.2, 0.3], p]))
    with pytest.raises(ValueError, match=match):
        parity_operator(rep, batch)
    # just below the cap is accepted
    parity_operator(rep, DuckMomentum(1.0, (0.0, 0.0, np.sinh(15.0 - 1e-9))))
