import importlib
import pkgutil
import warnings
from math import comb, sqrt

import numpy as np
import pytest
import scipy.linalg

import spinkin
from spinkin import reps
from spinkin.checks import run_all
from spinkin.kinematics import (
    FourMomentum,
    _boost_at,
    _set_four_velocity,
    boost_matrix,
    parity_operator,
    rapidity_from_momentum,
    rotation_matrix,
    sample_momenta,
    scaled_swap_family,
)
from spinkin.dirac import boosted_spinors
from spinkin.elko import THETA, antilinear_family, charge_conjugation
from spinkin.higherspin import field_equation_residual, gamma_tensor
from spinkin.linalg import anticommutator
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
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def commutator(A, B):
    return A @ B - B @ A


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

    @pytest.mark.parametrize("spin", [True, False, np.True_, np.False_])
    def test_a_bool_is_not_a_spin(self, spin):
        """Python counts a bool as an int, so True would read 2j = 1 as a
        label and spin 1 through coerce; every function that takes a spin
        refuses it instead. numpy's bools get the same ValueError, not a
        TypeError from fractions."""
        for call in (HalfInt, HalfInt.coerce, spin_matrices, rep_generators, tensor_rep_generators):
            with pytest.raises(ValueError, match=repr(spin)):
                call(spin)

    def test_largest_spin(self):
        """2j = 16 is the largest label; 2j = 17 is refused before any
        table of that spin is built."""
        assert HalfInt(16).dim == 34
        with pytest.raises(ValueError, match="2j = 17"):
            HalfInt(17)
        with pytest.raises(ValueError, match="2j = 17"):
            HalfInt.coerce("17/2")


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
        L = vector_boost(phi).matrix @ vector_boost(-phi).matrix
        assert np.allclose(L, np.eye(4), atol=1e-12)

    def test_metric_invariance(self, rng):
        for _ in range(20):
            L = vector_boost(rng.normal(size=3)).matrix @ vector_rotation(rng.normal(size=3)).matrix
            # Lambda^T g Lambda = g
            assert np.linalg.norm(L.T @ METRIC @ L - METRIC) < 1e-10

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
    """Equal shapes and bytes, each complex entry as its float pair: a changed
    signed zero, which --json prints, fails."""
    return all(
        g.shape == w.shape and g.view(float).tobytes() == w.view(float).tobytes()
        for g, w in zip(got, want, strict=True)
    )


class TestCacheContract:
    """Constants are built once and shared read-only; a representation is a
    value whose generators are built once, shared by every equal value and
    read-only, equal bit for bit to the block/Kronecker constructions;
    operators memoised on a momentum are read-only."""

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_spin_matrices_built_once_and_read_only(self, twice):
        first = spin_matrices(HalfInt(twice))
        assert all(a is b for a, b in zip(first, spin_matrices(str(HalfInt(twice)))))
        for M in first:
            with pytest.raises(ValueError):
                M[0, 0] = 7.0

    @pytest.mark.parametrize("twice", range(1, 9))
    def test_rep_generators_equal_block_construction(self, twice):
        rep = rep_generators(HalfInt(twice))
        J, K, eta = block_rep(twice)
        assert same_bits(rep.J, J) and same_bits(rep.K, K) and same_bits((rep.eta,), (eta,))

    @pytest.mark.parametrize("twice", range(1, 9))
    def test_tensor_rep_generators_equal_kron_construction(self, twice):
        rep = tensor_rep_generators(HalfInt(twice))
        J, K, swap = kron_tensor_rep(twice)
        assert same_bits(rep.J, J) and same_bits(rep.K, K) and same_bits((rep.eta,), (swap,))

    @pytest.mark.parametrize("build", [rep_generators, tensor_rep_generators])
    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_mutating_one_result_leaves_the_next(self, build, twice):
        """Equal representations share the same read-only J, K, eta and
        eta_index, so a write to one raises and the next reads the block or
        Kronecker construction."""
        rep = build(HalfInt(twice))
        arrays = rep.J + rep.K + (rep.eta, rep.eta_index)
        for M in arrays + tuple(M.base for M in rep.J + rep.K):
            with pytest.raises(ValueError):
                M[...] = 7
        fresh = build(str(HalfInt(twice)))
        assert fresh is not rep
        assert all(a is b for a, b in zip(fresh.J + fresh.K + (fresh.eta, fresh.eta_index), arrays, strict=True))
        reference = block_rep(twice) if build is rep_generators else kron_tensor_rep(twice)
        assert same_bits(fresh.J + fresh.K + (fresh.eta,), reference[0] + reference[1] + (reference[2],))

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_a_representation_is_its_value(self, twice):
        """(j, tensor) is the whole value: j is coerced, spin_matrices is
        derived from it, and the two spaces of one spin differ."""
        rep = rep_generators(twice / 2)
        assert rep == rep_generators(str(HalfInt(twice))) == RepGenerators(HalfInt(twice))
        assert hash(rep) == hash(rep_generators(str(HalfInt(twice))))
        assert rep.j == HalfInt(twice) and rep.spin_matrices is spin_matrices(HalfInt(twice))
        tensor = tensor_rep_generators(twice / 2)
        assert rep != tensor and tensor == RepGenerators(rep.j, True)
        assert repr(rep) == f"RepGenerators(j=HalfInt(twice={twice}), tensor=False)"

    @pytest.mark.parametrize(
        "tensor",
        [1, 0, None, "yes", np.True_, spin_matrices(HalfInt(1))],
        ids=["1", "0", "None", "yes", "np.True_", "spin_matrices"],
    )
    def test_tensor_must_be_a_bool(self, tensor):
        """Refused: an old positional call RepGenerators(j, spin_matrices(j))
        would otherwise build the tensor layout."""
        with pytest.raises(TypeError, match="tensor must be a bool"):
            RepGenerators(HalfInt(1), tensor)

    @pytest.mark.parametrize("build", [rep_generators, tensor_rep_generators])
    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_operators_at_a_momentum_are_read_only(self, build, twice):
        """P(q) and the memoised B(phi(q)) are shared through the momentum's
        memo, for a stack and for one momentum."""
        rep = build(HalfInt(twice))
        batch = sample_momenta(np.random.default_rng(twice), 3)
        for q in (batch, batch[0]):
            for M in (parity_operator(rep, q), _boost_at(rep, q)):
                with pytest.raises(ValueError):
                    M[..., 0, 0] = 7.0

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
        # the monomial exponents, which gamma_tensor reads, included
        monomials = first[4]
        assert monomials.shape == (len(first[2]), 4) and not monomials.flags.writeable
        M = np.arange(rep.dim**2, dtype=complex).reshape(rep.dim, rep.dim)
        assert np.array_equal(M @ rep.eta, M[:, rep.eta_index])
        assert np.array_equal(rep.eta @ M, M[rep.eta_index])

    def test_module_level_arrays_are_read_only(self):
        """Every array a module of the package binds at import is shared by
        every caller, so writing to it raises."""
        names = [f"spinkin.{m.name}" for m in pkgutil.iter_modules(spinkin.__path__) if m.name != "__main__"]
        writable = [
            f"{module.__name__}.{name}"
            for module in map(importlib.import_module, ["spinkin", *names])
            for name, value in vars(module).items()
            if isinstance(value, np.ndarray) and value.flags.writeable
        ]
        assert writable == []


class TestOneLayout:
    """Every chiral-block operator is a RepGenerators.lift; each equals the
    block construction written out here, bytes and signed zeros included
    (the generators: TestCacheContract, at 2j = 1..8)."""

    def test_charge_conjugation(self):
        Z = np.zeros((2, 2), dtype=complex)
        C = np.block([[Z, 1j * THETA], [-1j * THETA, Z]])
        assert same_bits((charge_conjugation().matrix,), (C,))

    @pytest.mark.parametrize("twice", [1, 2, 3])
    def test_scaled_swap_stack(self, twice):
        a = np.array([[1.0, 2.5 - 1.0j, 3.0j], [1e-3, -7.0, 0.25j]])
        inverse = 1.0 / a
        d = twice + 1
        Z, I = np.zeros((d, d), dtype=complex), np.eye(d, dtype=complex)
        want = [[np.block([[Z, x * I], [y * I, Z]]) for x, y in zip(*row)] for row in zip(a, inverse)]
        got = scaled_swap_family(rep_generators(HalfInt(twice)), a).rest_matrix
        assert same_bits((got,), (np.array(want),))

    def test_antilinear_stack_of_broadcast_scales(self):
        """a of shape (1, 2) and b of shape (3, 1) broadcast to a (3, 2)
        stack of diag(a Theta, b Theta)."""
        a = np.array([[1.0 - 0.5j, -2.0j]])
        b = np.array([[3.0], [0.5 + 0.0j], [-1.0 + 1.0j]])
        Z = np.zeros((2, 2), dtype=complex)
        want = [[np.block([[x * THETA, Z], [Z, y * THETA]]) for x in a[0]] for y in b[:, 0]]
        got = antilinear_family(rep_generators(HalfInt(1)), a, b).rest_matrix
        assert same_bits((got,), (np.array(want),))

    @pytest.mark.parametrize("twice", range(1, 17))
    def test_table_monomials_reproduce_index(self, twice):
        """Row r of the monomials is (k11, k12, k21, k22) with index[:, r] =
        (k11 d + k12, d^2 + k21 d + k22); every row has degree 2j."""
        index, _, weight, _, monomials, _ = _symmetric_power_table(twice)
        d = twice + 1
        k11, k12, k21, k22 = monomials.T
        assert np.array_equal(index, [k11 * d + k12, d * d + k21 * d + k22])
        assert (monomials.sum(axis=1) == twice).all() and (monomials >= 0).all()
        assert len({tuple(row) for row in monomials.tolist()}) == len(weight)


@pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
@pytest.mark.parametrize("twice", [1, 2, 3, 4])
def test_the_kernel_builds_no_generator_array(twice, stack):
    """The operation of the kernel benchmark, parity_operator, boosted_spinors
    and field_equation_residual on a u and a v spinor, reads no J, K, eta or
    eta_index: the cache behind them is not even looked up, also where P(q)
    is not memoised yet. Read afterwards, they are the block and Kronecker
    constructions, bit for bit, built once per representation."""
    reps._generators.cache_clear()
    j = HalfInt(twice)
    built = rep_generators(j), tensor_rep_generators(j)
    q = sample_momenta(np.random.default_rng(twice), 50)
    q = q if stack else q[7]
    parity_operator(built[0], q)
    basis = boosted_spinors(j, q)
    for at in (q, FourMomentum(q.m, q.p)):
        field_equation_residual(j, basis.u[0], at, +1)
        field_equation_residual(j, basis.v[0], at, -1)
    info = reps._generators.cache_info()
    assert (info.hits, info.misses) == (0, 0)
    for rep, (J, K, eta) in zip(built, (block_rep(twice), kron_tensor_rep(twice)), strict=True):
        assert same_bits(rep.J + rep.K + (rep.eta,), J + K + (eta,))
    info = reps._generators.cache_info()
    assert (info.hits, info.misses) == (4, 2)


def test_a_warm_check_all_builds_no_generator_array():
    """Every suite reads its generators from the one cache: once run_all has
    run, another seed makes no miss."""
    run_all(42)
    before = reps._generators.cache_info()
    run_all(43)
    after = reps._generators.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


# every spin the kernel is tested at; the checks use 2j <= 4
KERNEL_SPINS = range(1, 9)
# sample_momenta's draws: |p| <= 5 m, so |phi| <= asinh 5 = 2.31
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


def symmetric_power_dense(g, twice):
    """Reference for symmetric_power: each monomial g11^k11 g12^k12 g21^k21
    g22^k22 times its row of a dense (monomials, (2j+1)^2) complex table of
    binomial weights, the rows summed in order."""
    n, d = twice, twice + 1
    g = np.asarray(g, dtype=complex)
    # at least one stack axis: numpy's scalar power rounds unlike its array one
    flat = g.reshape(-1, 2, 2)
    columns, rows = [], []
    for k11 in range(n + 1):
        for k12 in range(n + 1 - k11):
            for k21 in range(n + 1 - k11 - k12):
                k22 = n - k11 - k12 - k21
                a, a_out = k11 + k21, k11 + k12
                row = np.zeros(d * d, dtype=complex)
                row[(n - a_out) * d + (n - a)] = comb(a, k11) * comb(n - a, k12) * sqrt(comb(n, a) / comb(n, a_out))
                rows.append(row)
                p = [np.power(flat[:, i, k], complex(e)) for (i, k), e in zip(np.ndindex(2, 2), (k11, k12, k21, k22))]
                columns.append((p[0] * p[1]) * (p[2] * p[3]))
    monomials = np.stack(columns, axis=-1)
    return (monomials[..., :, None] * np.array(rows)).sum(axis=-2).reshape(g.shape[:-2] + (d, d))


@pytest.mark.parametrize("twice", range(1, 9))
def test_segment_sums_match_the_dense_table(twice, rng):
    """symmetric_power sums each entry's monomials by segment; the dense
    table gives the same matrix bit for bit where no entry has more than
    two terms (2j <= 3), and to 1e-15 relative above, on one matrix and on
    a stack."""
    g = rng.normal(size=(40, 2, 2)) + 1j * rng.normal(size=(40, 2, 2))
    for x in (g, g[3]):
        got, want = symmetric_power(x, HalfInt(twice)), symmetric_power_dense(x, twice)
        if twice <= 3:
            assert same_bits((got,), (want,))
        else:
            assert rel_err(got, want) <= 1e-15


def test_no_negative_zero_at_rest():
    """No zero entry of eta = P(0), or of the gamma tensor's gamma^0 at
    2j = 1, carries a sign bit: the printed matrices read 0., never -0."""
    gammas = [gamma_tensor(HalfInt(1)).components[(0,)]]
    for twice in KERNEL_SPINS:
        for build in (rep_generators, tensor_rep_generators):
            gammas.append(parity_operator(build(HalfInt(twice)), FourMomentum(1.0, (0.0, 0.0, 0.0))))
    for M in gammas:
        for part in (M.real, M.imag):
            assert not np.signbit(part[part == 0.0]).any()


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
    values no validated momentum can hold; its four-velocity is formed by
    the code FourMomentum uses."""

    def __init__(self, m, p):
        self.m, self.p = np.asarray(m, dtype=float), np.asarray(p, dtype=float)
        _set_four_velocity(self)


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


def test_overflowing_four_velocity_is_refused():
    """p/m = 1e310 overflows to inf when the FourMomentum forms its
    four-velocity; both operators that read it refuse it by their caps, alone
    and in a stack, with no warning on the way."""
    rep = rep_generators(HalfInt(2))
    single = FourMomentum(1e-300, (0.0, 1e10, 0.0))
    batch = FourMomentum(np.array([1.0, 1e-300]), np.array([[0.1, 0.2, 0.3], [0.0, 1e10, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (single, batch):
            with pytest.raises(ValueError, match="^rapidity must be finite and within the parity overflow cap 15.0"):
                parity_operator(rep, q)
            with pytest.raises(ValueError, match="^rapidity inf exceeds the overflow cap 30.0$"):
                rapidity_from_momentum(q)
