import warnings

import numpy as np
import pytest

from spinkin import checks, elko
from spinkin.elko import (
    _REF_MINUS,
    _REF_PLUS,
    THETA,
    Cx2Basis,
    antilinear_family,
    antilinear_kinematic_solutions,
    charge_conjugation,
    elko_basis,
    elko_pair,
    g_operator,
    helicity_origin_discontinuity,
    helicity_spinors,
    nogo_monte_carlo,
    rotation_commutant_residual,
    schur_condition_family,
    schur_conditions,
)
from spinkin.kinematics import rotation_matrix
from spinkin.linalg import nullspace, stack_norm
from spinkin.reps import HalfInt, pauli_matrices, rep_generators, spin_matrices, tensor_rep_generators

G_E1_E2 = np.array([[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]], dtype=complex)


def elko_columns(basis: Cx2Basis) -> np.ndarray:
    """The Elko spinors as columns (u+, v+, u-, v-), matching diag(1, 1, -1, -1)."""
    eb = elko_basis(basis)
    return np.stack([eb.u_plus, eb.v_plus, eb.u_minus, eb.v_minus], axis=-1)


def g_from_eigenvectors(basis: Cx2Basis) -> np.ndarray:
    """Independent oracle: diag(1, 1, -1, -1) pushed through the Elko basis."""
    V = elko_columns(basis)
    return V @ np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex) @ np.linalg.inv(V)


def random_basis(rng, det_min=0.1) -> Cx2Basis:
    while True:
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        basis = Cx2Basis(u=z[:2] / np.linalg.norm(z[:2]), v=z[2:] / np.linalg.norm(z[2:]))
        if abs(basis.det) >= det_min:
            return basis


def nogo_floor_scalar(samples: int, seed: int) -> tuple[float, float]:
    """Reference for nogo_monte_carlo: one pair at a time, in numpy complex
    scalars, drawn as normal(4) + 1j * normal(4); returns the smallest
    sqrt(2) max(r1, r2) / |det| and sqrt(2) max(r1, r2) - |det|."""
    rng = np.random.default_rng(seed)
    ratio = excess = np.inf
    for _ in range(samples):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        a, b = z[:2] / np.linalg.norm(z[:2])
        c, d = z[2:] / np.linalg.norm(z[2:])
        det = abs(complex(a * d - b * c))
        r1 = abs(a * np.conj(d) - c * np.conj(b))
        r2 = abs(np.imag(a * np.conj(c)) - np.imag(b * np.conj(d)))
        bound = np.sqrt(2.0) * max(r1, r2)
        ratio = min(ratio, float(bound / det))
        excess = min(excess, float(bound - det))
    return ratio, excess


def schur_conditions_numpy(basis: Cx2Basis) -> tuple[float, float]:
    """Reference for schur_conditions: the formula in numpy complex scalars."""
    a, b = basis.u
    c, d = basis.v
    r1 = abs(a * np.conj(d) - c * np.conj(b))
    r2 = abs(np.imag(a * np.conj(c)) - np.imag(b * np.conj(d)))
    return float(r1), float(r2)


def commutant_residual_scalar(G) -> float:
    """Reference for rotation_commutant_residual: one matrix against the three
    generators diag(sigma_a/2, sigma_a/2), built from the Pauli matrices, on
    G over its largest entry modulus."""
    G = G / np.abs(G).max()
    generators = [np.kron(np.eye(2), s / 2) for s in pauli_matrices()]
    worst = max(float(np.linalg.norm(G @ J - J @ G)) for J in generators)
    return worst / float(np.linalg.norm(G))


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


def kernel_pairs(rng) -> np.ndarray:
    """(120, 2, 2) pairs (u, v): 60 wide pairs, then 60 whose parts are
    drawn from -1, -0, 0 and 1."""
    signed = np.empty((60, 2, 2), dtype=complex)
    signed.real, signed.imag = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(2, 60, 2, 2))
    return np.concatenate([wide_pairs(rng, (60,)), signed])


class TestWignerTheta:
    def test_square_minus_identity(self):
        assert np.array_equal(THETA @ THETA, -np.eye(2, dtype=complex))

    def test_conjugation_identity(self):
        # Theta J Theta^-1 = -conj(J) for the spin-1/2 generators
        for J in spin_matrices(HalfInt(1)):
            assert np.allclose(THETA @ J @ np.linalg.inv(THETA), -np.conj(J), atol=1e-15)


class TestChargeConjugation:
    def test_squares_to_identity(self):
        # C^2 = M conj(M) for the anti-linear C = M o K
        M = charge_conjugation().matrix
        assert np.array_equal(M @ np.conj(M), np.eye(4))

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
        V = elko_columns(basis)
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
            comm = rotation_commutant_residual(g_operator(basis))
            assert (comm <= 1e-9) == (max(r1, r2) <= 1e-10)

    def test_commutant_detects_each_condition_alone(self):
        # r1 = 0, r2 > 0 is still not rotation invariant; on both pairs the
        # entries of G and of its commutators are small exact numbers, and
        # the residual is exactly 1
        basis = schur_condition_family(1.0, 1.0, 1j)
        assert rotation_commutant_residual(g_operator(basis)) == 1.0
        # r2 = 0, r1 > 0 likewise
        basis = Cx2Basis(u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]))
        assert rotation_commutant_residual(g_operator(basis)) == 1.0

    def test_block_scalar_matrices_commute(self, rng):
        # the converse direction of Schur at the operator level: anything in
        # the block-scalar commutant commutes with every rotation generator
        blocks = rng.normal(size=4) + 1j * rng.normal(size=4)
        G = np.block(
            [
                [blocks[0] * np.eye(2), blocks[1] * np.eye(2)],
                [blocks[2] * np.eye(2), blocks[3] * np.eye(2)],
            ]
        )
        assert rotation_commutant_residual(G) < 1e-12

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
        ns = nullspace(np.vstack(rows))
        assert ns.shape[1] == 4
        for k in range(4):
            X = ns[:, k].reshape(4, 4)
            for r in (0, 2):
                for c in (0, 2):
                    blk = X[r : r + 2, c : c + 2]
                    assert np.linalg.norm(blk - (np.trace(blk) / 2) * np.eye(2)) < 1e-10


class _Poly:
    """A polynomial with integer coefficients in the eight real coordinates
    of (a, b, c, d), as {exponent tuple: coefficient} with no zero terms."""

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if v}

    @classmethod
    def var(cls, k):
        return cls({tuple(int(i == k) for i in range(8)): 1})

    @classmethod
    def const(cls, c):
        return cls({(0,) * 8: c})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return _Poly(out)

    def __neg__(self):
        return _Poly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            other = _Poly.const(other)
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(x + y for x, y in zip(k1, k2))
                out[k] = out.get(k, 0) + v1 * v2
        return _Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == other.terms


class _Cx:
    """A complex polynomial as its real and imaginary parts."""

    def __init__(self, re, im):
        self.re, self.im = re, im

    def conj(self):
        return _Cx(self.re, -self.im)

    def __add__(self, other):
        return _Cx(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _Cx(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _Cx(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def abs2(self):
        return self.re * self.re + self.im * self.im


def _kernel_polys():
    """(a, b, c, d) as _Cx of the eight real coordinates (re a, im a, re b,
    ... numbered 0..7), and elko._pair_kernel's (re det, im det, re w, im w,
    s_ac, s_bd) of them as integer polynomials."""
    abcd = [_Cx(_Poly.var(2 * k), _Poly.var(2 * k + 1)) for k in range(4)]
    parts = [z.re for z in abcd] + [z.im for z in abcd]
    return abcd, elko._pair_kernel(parts)


def _cx_matmul(X, Y):
    """The product of two square matrices of _Cx, as lists of rows."""
    n = range(len(X))
    zero = _Cx(_Poly({}), _Poly({}))
    out = [[zero] * len(X) for _ in n]
    for i in n:
        for j in n:
            for k in n:
                out[i][j] = out[i][j] + X[i][k] * Y[k][j]
    return out


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
        assert report["pass"] and report["min_excess"] >= 0.0
        # the bound holds on every pair, and the sweep comes within 1% of
        # it: the bound is sharp
        assert 1.0 <= report["min_ratio"] < 1.01

    @pytest.mark.parametrize("seed", [0, 7, 20240811])
    @pytest.mark.parametrize("samples", [1, 1023, 1024, 1025, 10_000])
    def test_array_sweep_matches_scalar_loop(self, samples, seed):
        # chunk edges (1024 pairs per pass) and the default sweep
        report = nogo_monte_carlo(samples=samples, seed=seed)
        assert (report["min_ratio"], report["min_excess"]) == nogo_floor_scalar(samples, seed)

    def test_bound_is_attained(self):
        # u = (1, 1), v = (i, 2 - i): r1 = r2 = 2 and |det| = 2 sqrt(2)
        basis = Cx2Basis(u=np.array([1.0, 1.0]), v=np.array([1j, 2.0 - 1j]))
        r1, r2 = schur_conditions(basis)
        assert (r1, r2) == (2.0, 2.0)
        assert np.sqrt(2.0) * max(r1, r2) / basis.abs_det == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("flip", [False, True])
    def test_identity_by_integer_expansion(self, flip):
        """r1^2 + r2^2 = |ad - bc|^2 + (Im a conj(c) + Im b conj(d))^2 as
        integer polynomials in the eight real coordinates, with det, w = a
        conj(d) - c conj(b), s_ac = Im a conj(c) and s_bd = Im b conj(d) read
        off elko's pair kernel; with the sign inside r2 flipped the two sides
        differ."""
        (a, b, c, d), (det_re, det_im, w_re, w_im, s_ac, s_bd) = _kernel_polys()
        det, w = a * d - b * c, a * d.conj() - c * b.conj()
        assert (det_re, det_im, w_re, w_im) == (det.re, det.im, w.re, w.im)
        assert (s_ac, s_bd) == ((a * c.conj()).im, (b * d.conj()).im)
        r2 = s_ac + s_bd if flip else s_ac - s_bd
        lhs = w_re * w_re + w_im * w_im + r2 * r2
        rhs = det_re * det_re + det_im * det_im + (s_ac + s_bd) * (s_ac + s_bd)
        assert (lhs == rhs) is not flip

    @pytest.mark.parametrize("flip", [False, True])
    def test_commutator_identity_by_integer_expansion(self, flip):
        """|det|^2 sum_a ||[G(u, v), J_a]||_F^2 = 8 (r1^2 + r2^2) as integer
        polynomials in the eight real coordinates; with the sign inside r2
        flipped the two sides differ.

        G is g_operator's: the numerators that elko._g_numerators lays out
        from the pair kernel's polynomials, det times the upper block and
        conj(det) times the lower one. [G, J_a] keeps that block form, so
        |det|^2 ||[G, J_a]||^2 = ||[det-scaled G, J_a]||^2. The generators
        enter as 2 J_a, with entries 0, +-1 and +-i, which multiplies the
        left side by 4."""
        abcd, (_, _, *schur) = _kernel_polys()
        parts = [_Poly.const(x) if isinstance(x, int) else x for x in elko._g_numerators(*schur)]
        zero = _Cx(_Poly({}), _Poly({}))
        G = [[zero] * 4 for _ in range(4)]
        # entry k: block k // 4 (upper right, then lower left), row k // 2 % 2, column k % 2
        for k, (re, im) in enumerate(zip(parts[0::2], parts[1::2])):
            block = k // 4
            G[2 * block + k // 2 % 2][2 - 2 * block + k % 2] = _Cx(re, im)
        lhs = _Poly({})
        for Ja in rep_generators(HalfInt(1)).J:
            J = [[_Cx(_Poly.const(int(2 * z.real)), _Poly.const(int(2 * z.imag))) for z in row] for row in Ja]
            for gj_row, jg_row in zip(_cx_matmul(G, J), _cx_matmul(J, G)):
                for gj, jg in zip(gj_row, jg_row):
                    lhs = lhs + (gj - jg).abs2()
        a, b, c, d = abcd
        ac, bd = (a * c.conj()).im, (b * d.conj()).im
        r2 = ac + bd if flip else ac - bd
        rhs = (a * d.conj() - c * b.conj()).abs2() + r2 * r2
        assert (lhs == _Poly.const(32) * rhs) is not flip

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_commutator_sum_at_least_eight(self, seed):
        """The corollary on the suite's unit pairs: r1^2 + r2^2 >= |det|^2
        makes sum_a ||[G, J_a]||_F^2 >= 8, so no genuine basis gives a G that
        commutes with the rotations; the largest of the three terms, which
        rotation_commutant_residual reports over ||G||_F^2, is at least a
        third of the sum."""
        basis = elko._unit_pairs(np.random.default_rng(seed), 2000)
        G = g_operator(basis)
        J = np.array(rep_generators(HalfInt(1)).J)[:, None]
        total = (stack_norm(G @ J - J @ G, 2) ** 2).sum(axis=0)
        r1, r2 = schur_conditions(basis)
        want = 8.0 * (r1**2 + r2**2) / basis.abs_det**2
        assert (np.abs(total - want) <= 1e-14 * want).all()
        assert total.min() >= 8.0 * (1.0 - 1e-14)
        worst = rotation_commutant_residual(G) * stack_norm(G, 2)
        assert (3.0 * worst**2 >= total * (1.0 - 1e-14)).all()


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
        assert G.shape == shape + (4, 4) and elko_columns(stack).shape == shape + (4, 4)
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

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_kernel_readers_equal_the_scalar_references_bit_for_bit(self, rng, stacked):
        """det and abs_det are det_scalar and Python's abs of it, and
        schur_conditions is schur_conditions_numpy, bit for bit (signs of zero
        included), on one pair and on a stack: wide pairs, and pairs whose
        parts are drawn from -1, -0, 0 and 1."""
        z = kernel_pairs(rng)
        stack = Cx2Basis(u=z[:, 0], v=z[:, 1])
        det, abs_det, (r1, r2) = stack.det, stack.abs_det, schur_conditions(stack)
        for k in range(len(z)):
            single = Cx2Basis(u=z[k, 0], v=z[k, 1])
            if stacked:
                got = det[k], abs_det[k], r1[k], r2[k]
            else:
                got = single.det, single.abs_det, *schur_conditions(single)
            want = det_scalar(single)
            assert_same_bits(np.complex128(got[0]), np.complex128(want))
            assert_same_bits(np.float64(got[1]), np.float64(abs(want)))
            for value, ref in zip(got[2:], schur_conditions_numpy(single), strict=True):
                assert_same_bits(np.float64(value), np.float64(ref))

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_g_operator_equals_the_scalar_reference_in_value(self, rng, stacked):
        """On the pairs of the kernel readers' test, g_operator equals
        g_operator_scalar in value (signs of zero may differ at zero entries),
        on one pair and on a stack of the genuine ones, and each stacked entry
        equals its single call bit for bit. A degenerate pair is refused,
        alone and in a stack."""
        z = kernel_pairs(rng)
        genuine = Cx2Basis(u=z[:, 0], v=z[:, 1]).abs_det > 1e-10
        assert 0 < genuine.sum() < len(z)
        G = g_operator(Cx2Basis(u=z[genuine, 0], v=z[genuine, 1]))
        for i, k in enumerate(np.flatnonzero(genuine)):
            single = Cx2Basis(u=z[k, 0], v=z[k, 1])
            assert_same_bits(G[i], g_operator(single))
            got = G[i] if stacked else g_operator(single)
            assert (got == g_operator_scalar(single)).all()
        refused = [Cx2Basis(u=z[k, 0], v=z[k, 1]) for k in np.flatnonzero(~genuine)]
        for basis in refused + [Cx2Basis(u=z[:, 0], v=z[:, 1])]:
            with pytest.raises(ValueError, match="^u, v are degenerate"):
                g_operator(basis)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_unit_pairs_are_the_sweeps_pairs(self, seed, monkeypatch):
        """_unit_pairs(default_rng(s), n) holds, bit for bit, the first n
        pairs the sweep at seed s hands to the pair kernel, here across the
        edge of its first chunk."""
        n = elko._NOGO_CHUNK + 300
        seen = []
        kernel = elko._pair_kernel
        monkeypatch.setattr(elko, "_pair_kernel", lambda parts: seen.append(parts) or kernel(parts))
        nogo_monte_carlo(samples=n, seed=seed)
        assert [parts.shape for parts in seen] == [(8, elko._NOGO_CHUNK), (8, 300)]
        assert_same_bits(elko._unit_pairs(np.random.default_rng(seed), n)._parts, np.concatenate(seen, axis=1))

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
        stacked = rotation_commutant_residual(G)
        assert stacked.shape == (12,)
        for k in range(12):
            assert stacked[k] == rotation_commutant_residual(G[k])
            assert stacked[k] == commutant_residual_scalar(G[k])
        assert rotation_commutant_residual(G.reshape(3, 4, 4, 4)).shape == (3, 4)

    def test_rotation_commutant_residual_is_the_matrix_product(self, rng):
        """J_a applied by index gives the residual of the explicit products
        G J_a - J_a G, bit for bit, on a stack and on one matrix."""
        G = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
        J = np.array(rep_generators(HalfInt(1)).J)
        for X in (G, G[7]):
            # the residual is formed on X over its largest entry modulus
            M = X / np.abs(X).max(axis=(-2, -1), keepdims=True)
            Ja = J.reshape((3,) + (1,) * (M.ndim - 2) + (4, 4))
            want = stack_norm(M @ Ja - Ja @ M, 2).max(axis=0) / stack_norm(M, 2)
            assert np.array_equal(rotation_commutant_residual(X), want)

    @pytest.mark.parametrize("shape", [(2, 8), (1, 2, 8)])
    def test_rotation_commutant_residual_refuses_a_matrix_not_4_by_4(self, shape):
        """Sixteen entries in another shape are not a G: refused, not read as one."""
        with pytest.raises(ValueError, match=r"^G must have shape \(\.\.\., 4, 4\), got \("):
            rotation_commutant_residual(np.arange(16.0).reshape(shape) + 1)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_rotation_commutant_residual_refuses_a_zero_or_non_finite_g(self, rng, bad):
        """A zero G has no scale-free residual and a non-finite one no
        residual at all: both are refused with one ValueError and no
        warning, alone or as one matrix of a stack."""
        G = g_operator(Cx2Basis(u=rng.normal(size=(3, 2)) + 0.3j, v=rng.normal(size=(3, 2)) - 0.1j))
        G[1] = 0.0
        G[1, 2, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (G[1], G):
                with pytest.raises(ValueError, match="^G must be finite and non-zero$"):
                    rotation_commutant_residual(arg)
            assert rotation_commutant_residual(G[::2]).shape == (2,)

    def test_rotation_commutant_residual_at_the_top_of_the_float_range(self, rng):
        # u = (1e80, 0), v = (1e80 i, 1e-80): det = 1 and max|G| = 2e160, so
        # ||G||_F^2 overflows; the residual is scale-free and equals that of
        # G scaled down by an exact power of two
        z = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
        z[4] = [[1e80, 0.0], [1e80j, 1e-80]]
        G = g_operator(Cx2Basis(u=z[:, 0], v=z[:, 1]))
        assert np.abs(G[4]).max() == 2e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = rotation_commutant_residual(G)
            for k in range(6):
                assert stacked[k] == rotation_commutant_residual(G[k])
                assert stacked[k] == commutant_residual_scalar(G[k])
            small = G[4] * 2.0**-600
            assert stacked[4] == rotation_commutant_residual(small)
        # and it is the residual formed with no rescaling, where that is finite
        J = np.array(rep_generators(HalfInt(1)).J)
        plain = stack_norm(small @ J - J @ small, 2).max() / np.linalg.norm(small)
        assert stacked[4] > 0.0 and stacked[4] == pytest.approx(plain, rel=1e-14)

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
        comm = commutant_residual_scalar(g_operator_scalar(basis))
        equivalence.append((comm, max(schur_conditions_numpy(basis))))
    scalar_comm = 0.0
    for _ in range(5):
        blocks = rng.normal(size=4) + 1j * rng.normal(size=4)
        G = np.zeros((4, 4), dtype=complex)
        G[:2, :2] = blocks[0] * np.eye(2)
        G[:2, 2:] = blocks[1] * np.eye(2)
        G[2:, :2] = blocks[2] * np.eye(2)
        G[2:, 2:] = blocks[3] * np.eye(2)
        scalar_comm = max(scalar_comm, commutant_residual_scalar(G))
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
        report = checks.elko_nogo_suite(seed)
        ref = elko_nogo_suite_loop(seed)
        assert report["max_residuals"]["constructed_family_det"] == ref["worst_det"]
        assert report["max_residuals"]["block_scalar_commutant"] == ref["scalar_comm"]
        # the first commutant call is the equivalence sweep
        assert seen[0].tolist() == [comm for comm, _ in ref["equivalence"]]
        assert report["schur_equivalence_ok"]


class TestAntilinearSolutions:
    def test_dimension_and_span(self):
        space = antilinear_kinematic_solutions(rep_generators(HalfInt(1)))
        assert space["dimension"] == 2
        assert space["span_residual"] < 1e-12

    def test_classification_refuses_the_tensor_representation(self):
        """The span blocks diag(Theta, 0) and diag(0, Theta) are direct-sum
        matrices; on the tensor product their lift is 0 and the span residual
        would read nan."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\(j,0\)\+\(0,j\)"):
                antilinear_kinematic_solutions(tensor_rep_generators(HalfInt(1)))

    def test_family_refuses_the_tensor_representation(self):
        """diag(a Theta, b Theta) paired with the Kronecker-sum generators
        would report an anticommutator of another space (3.16 at a = 1,
        b = 2)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tensor"):
                antilinear_family(tensor_rep_generators(HalfInt(1)), 1.0, 2.0)

    def test_eq23_members_anticommute(self, rng):
        rep = rep_generators(HalfInt(1))
        for _ in range(5):
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            fam = antilinear_family(rep, a, b)
            assert fam.anticommutator_residual() < 1e-14

    def test_square_is_minus_moduli(self):
        rep = rep_generators(HalfInt(1))
        # the square of diag(a Theta, b Theta) o K at rest is M conj(M)
        M = antilinear_family(rep, 1.0, 1.0).rest_matrix
        assert np.allclose(M @ np.conj(M), -np.eye(4), atol=1e-15)
        M = antilinear_family(rep, 2.0, 0.5j).rest_matrix
        ev = np.sort(np.linalg.eigvals(M @ np.conj(M)).real)
        assert np.allclose(ev, [-4.0, -4.0, -0.25, -0.25], atol=1e-12)

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.nan, "finite and non-zero"),
            (np.inf, "finite and non-zero"),
            (complex(np.nan, 1.0), "finite and non-zero"),
            (0.0, "finite and non-zero"),
            (1e300, "overflows"),
            # |a|^2 sqrt(2) overflows in the norm of the square
            (1.2e154j, "overflows"),
        ],
    )
    @pytest.mark.parametrize("slot", ["a", "b"])
    def test_domain(self, bad, match, slot):
        rep = rep_generators(HalfInt(1))
        good = np.array([1.0, 0.5j, -2.0])
        stack = good.copy().astype(complex)
        stack[1] = bad
        cases = [
            lambda: antilinear_family(rep, *((bad, 1.0) if slot == "a" else (1.0, bad))),
            lambda: antilinear_family(rep, *((stack, good) if slot == "a" else (good, stack))),
        ]
        for call in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=match):
                    call()

    @pytest.mark.parametrize("scale", [1.1e154, 1.1e154j])
    def test_largest_scales_are_accepted(self, scale):
        """The edge of the domain is where the square's norm overflows:
        |a|^2 sqrt(2) is still a float at |a| = 1.1e154."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = antilinear_family(rep_generators(HalfInt(1)), scale, 1.0)
        assert np.abs(fam.rest_matrix).max() == abs(scale)

    def test_rest_map_matches_block_form(self, rng):
        """The rest matrix equals np.block([[a Theta, 0], [0, b Theta]]) bit
        for bit, singly and as a stack."""
        Z = np.zeros((2, 2), dtype=complex)
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        rep = rep_generators(HalfInt(1))
        stack = antilinear_family(rep, a, b).rest_matrix
        for k in range(6):
            block = np.block([[a[k] * THETA, Z], [Z, b[k] * THETA]])
            assert np.array_equal(antilinear_family(rep, a[k], b[k]).rest_matrix.view(float), block.view(float))
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
                M = fam.matrix_at(q)
                assert np.linalg.norm(M @ np.conj(M) - np.eye(4)) >= 1.0


class TestHelicityOrigin:
    def test_helicity_eigenvectors(self):
        u, v = helicity_spinors((0.0, 0.0, 2.5))
        sz = np.diag([1.0, -1.0]).astype(complex)
        assert np.linalg.norm(sz @ u - u) < 1e-14
        assert np.linalg.norm(sz @ v + v) < 1e-14

    @pytest.mark.parametrize(
        "p, direction",
        [
            ((1e200, 0.0, 0.0), (1.0, 0.0, 0.0)),
            ((1e-170, 0.0, 0.0), (1.0, 0.0, 0.0)),
            ((0.0, -1e300, 1e300), (0.0, -1.0, 1.0)),
        ],
    )
    def test_helicity_spinors_at_extreme_momenta(self, p, direction):
        # |p| would overflow or underflow: the pair is that of the direction
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, v = helicity_spinors(p)
        want_u, want_v = helicity_spinors(direction)
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)
        n = np.array(direction) / np.linalg.norm(direction)
        H = sum(x * s for x, s in zip(n, pauli_matrices()))
        assert np.linalg.norm(H @ u - u) < 1e-15 and np.linalg.norm(H @ v + v) < 1e-15

    @pytest.mark.parametrize("p, k, ref", [((0.0, -1.0, 0.0), 0, _REF_PLUS), ((0.8, 0.0, 0.6), 1, _REF_MINUS)])
    def test_phase_fallback_when_reference_is_orthogonal(self, p, k, ref):
        """Where the phase reference is orthogonal to the eigenvector, a
        component of largest modulus is made real and positive."""
        w = helicity_spinors(p)[k]
        H = sum(x * s for x, s in zip(p, pauli_matrices()))
        assert np.linalg.norm(H @ w - (1 - 2 * k) * w) < 1e-15
        assert abs(np.vdot(ref, w)) < 1e-12
        top = w[np.abs(w) >= np.abs(w).max() * (1 - 1e-12)]
        assert any(c.imag == 0 and c.real > 0 for c in top)

    def test_direction_only_dependence(self):
        # G at eps n depends on n alone: along each ray it is the same at
        # eps = 1e-3 and 1e-6
        report = helicity_origin_discontinuity()
        assert report["epsilons"] == [1e-3, 1e-6]
        assert list(report["ray_cauchy"]) == ["0,0,1", "1,0,0", "0,0,-1"]
        assert max(report["ray_cauchy"].values()) <= 1e-6

    def test_report(self):
        report = helicity_origin_discontinuity()
        assert report["pairwise_distance"]["(0,0,1) vs (1,0,0)"] > 0.1
        assert report["pairwise_distance"]["(0,0,1) vs (0,0,-1)"] > 0.1

    def test_deterministic(self):
        a, b = helicity_origin_discontinuity(), helicity_origin_discontinuity()
        for key, limit in a["limits"].items():
            assert np.array_equal(limit, b["limits"][key])
        assert a["ray_cauchy"] == b["ray_cauchy"]

    def test_zero_momentum_rejected(self):
        with pytest.raises(ValueError):
            helicity_spinors((0.0, 0.0, 0.0))
