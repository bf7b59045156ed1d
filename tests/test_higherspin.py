import numpy as np
import pytest

import spinkin.higherspin
from conftest import momenta
from spinkin.dirac import boosted_spinors, gamma_matrices, rest_spinors
from spinkin.higherspin import (
    CERTIFICATE_TOL,
    field_equation_residual,
    gamma_tensor,
    index_multiplicity,
    involution_certificate,
    swap_operator_at,
    symmetric_multi_indices,
    tensor_boost_matrix,
)
from spinkin.kinematics import FourMomentum, parity_operator
from spinkin.linalg import anticommutator
from spinkin.reps import HalfInt, rep_generators, tensor_rep_generators


class TestFieldEquation:
    def test_spin_one_u_spinors(self):
        for q in momenta(101, 15):
            basis = boosted_spinors(HalfInt(2), q)
            for w in basis.u:
                assert field_equation_residual(HalfInt(2), w, q, +1) <= 1e-9

    def test_spin_three_half_v_spinors(self):
        for q in momenta(103, 15):
            basis = boosted_spinors(HalfInt(3), q)
            for w in basis.v:
                assert field_equation_residual(HalfInt(3), w, q, -1) <= 1e-9

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_rest_wrong_eigenspace_gives_two(self, twice):
        q = FourMomentum(1.0, (0, 0, 0))
        basis = rest_spinors(HalfInt(twice), mass=1.0)
        assert field_equation_residual(HalfInt(twice), basis.u[0], q, -1) == pytest.approx(2.0, rel=1e-12)

    def test_zero_spinor_rejected(self):
        with pytest.raises(ValueError):
            field_equation_residual(HalfInt(1), np.zeros(4), FourMomentum(1.0, (0, 0, 0)), +1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            field_equation_residual(HalfInt(1), np.ones(4), FourMomentum(1.0, (0, 0, 0)), 2)


def count_calls(monkeypatch, module, *names) -> dict:
    """Replace each named function of module by a wrapper that counts its
    calls; returns the live counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


class TestFieldEquationMemo:
    """The u and v field equations at one momentum object share one P(q),
    read from the momentum's memo before any generator is built."""

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_memo_hit_builds_nothing(self, monkeypatch, twice):
        j = HalfInt(twice)
        q = momenta(40 + twice, 6)
        basis = boosted_spinors(j, q)
        parity_operator(rep_generators(j), q)
        counts = count_calls(monkeypatch, spinkin.higherspin, "parity_operator", "rep_generators")
        for ws, sign in ((basis.u, +1), (basis.v, -1)):
            assert field_equation_residual(j, np.array(ws), q, sign).max() <= 1e-9
        assert counts == {"parity_operator": 0, "rep_generators": 0}

    def test_u_and_v_share_one_evaluation(self, monkeypatch):
        j = HalfInt(2)
        q = momenta(45, 1)[0]
        basis = boosted_spinors(j, q)
        counts = count_calls(monkeypatch, spinkin.higherspin, "parity_operator", "rep_generators")
        r_u = field_equation_residual(j, basis.u[0], q, +1)
        r_v = field_equation_residual(j, basis.v[0], q, -1)
        assert counts == {"parity_operator": 1, "rep_generators": 1}
        # a new momentum object with the same values evaluates P(q) once more,
        # and reads the same residuals
        twin = FourMomentum(q.m, q.p)
        assert field_equation_residual(j, basis.u[0], twin, +1) == r_u
        assert field_equation_residual(j, basis.v[0], twin, -1) == r_v
        assert counts == {"parity_operator": 2, "rep_generators": 2}

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_memoised_stack_equals_fresh_single_calls(self, twice):
        """With P(q) memoised on the stack, every stacked residual still equals
        the fresh single-momentum call bit for bit."""
        j = HalfInt(twice)
        q = momenta(50 + twice, 8)
        basis = boosted_spinors(j, q)
        parity_operator(rep_generators(j), q)
        for ws, sign in ((basis.u, +1), (basis.v, -1)):
            stacked = field_equation_residual(j, ws[0], q, sign)
            assert [float(r) for r in stacked] == [
                field_equation_residual(j, ws[0][k], FourMomentum(q.m[k], q.p[k]), sign) for k in range(len(q))
            ]


def involution_residual(twice: int, q: FourMomentum) -> float:
    """||P_j(q)^2 - I||_F / dim: the on-shell contraction identity, the
    square (p.p)^{2j}/m^{4j} = 1, as involution_suite forms it."""
    j = HalfInt(twice)
    P = parity_operator(rep_generators(j), q)
    return float(np.linalg.norm(P @ P - np.eye(j.dim)) / j.dim)


class TestContractionIdentity:
    def test_spin_half_tight(self):
        for q in momenta(107, 25):
            assert involution_residual(1, q) <= 1e-11

    def test_spin_two_at_five_m(self):
        # worst conditioning: 8th-power products in the square
        rng = np.random.default_rng(109)
        for _ in range(10):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            m = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            q = FourMomentum(m, tuple(5.0 * m * d))
            assert involution_residual(4, q) <= 1e-7

    def test_rest_exact_zero(self):
        for twice in (1, 2, 3, 4):
            q = FourMomentum(2.5, (0, 0, 0))
            assert involution_residual(twice, q) == 0.0


class TestParitySpectrum:
    """involution_certificate against an eigensolver and a determinant,
    which serve as references inside the sampled envelope (2j <= 4,
    |p| <= 5m) only."""

    # block-swap permutation sign: +1, -1, +1, -1 for 2j = 1..4
    @pytest.mark.parametrize("twice,det", [(1, 1.0), (2, -1.0), (3, 1.0), (4, -1.0)])
    def test_det_momentum_independent(self, twice, det):
        rep = rep_generators(HalfInt(twice))
        for q in momenta(113 + twice, 10):
            P = parity_operator(rep, q)
            # the corollary det P = (-1)^(n-), against an LU determinant
            assert (-1) ** involution_certificate(P)["multiplicities"]["-1"] == det
            assert np.linalg.det(P) == pytest.approx(det, abs=1e-8)

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_eigenvalue_multiplicities(self, twice):
        j = HalfInt(twice)
        rep = rep_generators(j)
        for q in momenta(127 + twice, 10):
            P = parity_operator(rep, q)
            cert = involution_certificate(P)
            assert cert["multiplicities"] == {"+1": j.block_dim, "-1": j.block_dim}
            assert cert["square_residual"] <= 1e-7
            ev = np.linalg.eigvals(P)
            assert np.all(np.abs(np.abs(ev.real) - 1.0) < 1e-7)
            assert np.all(np.abs(ev.imag) < 1e-7)
            assert int(np.sum(ev.real > 0)) == int(np.sum(ev.real < 0)) == j.block_dim

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_batch_matches_per_momentum_loop(self, twice):
        rep = rep_generators(HalfInt(twice))
        batch = momenta(131 + twice, 12)
        out = involution_certificate(parity_operator(rep, batch))
        assert out["square_residual"].shape == out["certified"].shape == (12,)
        assert all(n.shape == (12,) for n in out["multiplicities"].values())
        for k, q in enumerate(batch):
            single = involution_certificate(parity_operator(rep, q))
            assert type(single["square_residual"]) is float and type(single["certified"]) is bool
            assert out["square_residual"][k] == single["square_residual"]
            assert out["certified"][k] == single["certified"]
            for sign, n in single["multiplicities"].items():
                assert type(n) is int and out["multiplicities"][sign][k] == n

    @pytest.mark.parametrize("twice", range(1, 9))
    def test_multiplicities_certified_to_spin_4(self, twice):
        """n+- = 2j+1 at 2j = 1..8, certified by a square within tolerance.
        For the block-swap P the diagonal blocks are exact zeros, so the
        counts read 2j+1 at any momentum; the square is what can fail."""
        j = HalfInt(twice)
        P = parity_operator(rep_generators(j), FourMomentum(1.0, (0.3, -0.2, 0.5)))
        cert = involution_certificate(P)
        assert cert["multiplicities"] == {"+1": j.block_dim, "-1": j.block_dim}
        assert cert["square_residual"] <= CERTIFICATE_TOL and cert["certified"] is True

    @pytest.mark.parametrize("twice", range(1, 9))
    def test_tensor_swap_multiplicities(self, twice):
        """On (j,0)x(0,j) the boosted swap has tr = 2j+1, not 0, so the trace
        formula is not structural there: n+- = d(d +- 1)/2, the symmetric and
        antisymmetric squares of the d = 2j+1 dimensional block."""
        d = HalfInt(twice).block_dim
        cert = involution_certificate(swap_operator_at(HalfInt(twice), momenta(137 + twice, 20)))
        assert np.all(cert["multiplicities"]["+1"] == d * (d + 1) // 2)
        assert np.all(cert["multiplicities"]["-1"] == d * (d - 1) // 2)

    def test_counts_certify_only_with_the_square(self):
        """2P keeps the counts of P, so the counts alone certify nothing: the
        square residual ||4P^2 - I||_F = 3 sqrt 6 is what fails."""
        P = parity_operator(rep_generators(HalfInt(2)), FourMomentum(1.0, (0.3, 0.1, -0.2)))
        cert = involution_certificate(2.0 * P)
        assert cert["multiplicities"] == {"+1": 3, "-1": 3}
        assert cert["square_residual"] >= 7.3 and cert["certified"] is False


class TestGammaTensorExtraction:
    def test_multi_index_bookkeeping(self):
        assert len(symmetric_multi_indices(1)) == 4
        assert len(symmetric_multi_indices(2)) == 10
        assert index_multiplicity((0, 0)) == 1
        assert index_multiplicity((0, 1)) == 2
        assert index_multiplicity((0, 1, 2)) == 6

    def test_spin_half_recovers_gammas(self):
        tensor = gamma_tensor(HalfInt(1))
        g = gamma_matrices().gamma
        for mu in range(4):
            assert np.array_equal(tensor.components[(mu,)], g[mu])

    def test_symmetric_storage(self):
        tensor = gamma_tensor(HalfInt(2))
        assert tensor.component(0, 1) is tensor.component(1, 0)
        tensor = gamma_tensor(HalfInt(3))
        assert tensor.component(3, 0, 2) is tensor.component(2, 3, 0) is tensor.components[(0, 2, 3)]

    @pytest.mark.parametrize("twice", [1, 2, 3, 8])
    def test_components_in_multi_index_order(self, twice):
        tensor = gamma_tensor(HalfInt(twice))
        assert list(tensor.components) == symmetric_multi_indices(twice)
        assert all(mat.shape == (HalfInt(twice).dim,) * 2 for mat in tensor.components.values())

    def test_contract_matches_operator(self):
        tensor = gamma_tensor(HalfInt(2))
        rep = rep_generators(HalfInt(2))
        q = FourMomentum(1.2, (0.3, -0.5, 0.8))
        target = q.m**2 * parity_operator(rep, q)
        assert np.linalg.norm(tensor.contract(q) - target) < 1e-13 * np.linalg.norm(target)

    @pytest.mark.parametrize("twice", range(1, 9))
    def test_stacked_contraction_matches_operator(self, twice):
        """m^{2j} P_j(q) over seeded momenta up to |p| = 5m, each entry of the
        stacked contraction equal to its single call bit for bit."""
        j = HalfInt(twice)
        batch = momenta(140 + twice, 50)
        tensor = gamma_tensor(j)
        contracted = tensor.contract(batch)
        assert contracted.shape == (50, j.dim, j.dim)
        target = batch.m[:, None, None] ** twice * parity_operator(rep_generators(j), batch)
        r = np.linalg.norm(contracted - target, axis=(-2, -1)) / np.linalg.norm(target, axis=(-2, -1))
        assert r.max() <= 1e-13
        for k, q in enumerate(batch):
            assert np.array_equal(contracted[k], tensor.contract(q))

    def test_contract_keeps_the_stack_shape(self):
        batch = momenta(149, 6)
        tensor = gamma_tensor(HalfInt(3))
        stacked = tensor.contract(FourMomentum(batch.m.reshape(2, 3), batch.p.reshape(2, 3, 3)))
        assert stacked.shape == (2, 3, 8, 8)
        assert np.array_equal(stacked.reshape(6, 8, 8), tensor.contract(batch))


class TestTensorSwap:
    @pytest.mark.parametrize("twice", [1, 2, 3])
    def test_involution_exact(self, twice):
        S = tensor_rep_generators(HalfInt(twice)).eta
        n = S.shape[0]
        assert np.array_equal(S @ S, np.eye(n, dtype=complex))

    def test_swaps_product_vectors(self, rng):
        d = 3
        S = tensor_rep_generators(HalfInt(2)).eta
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        y = rng.normal(size=d) + 1j * rng.normal(size=d)
        assert np.allclose(S @ np.kron(x, y), np.kron(y, x), atol=1e-14)

    @pytest.mark.parametrize("twice", [1, 2])
    def test_anticommutes_with_tensor_boosts(self, twice):
        rep = tensor_rep_generators(HalfInt(twice))
        for Ka in rep.K:
            assert np.linalg.norm(anticommutator(rep.eta, Ka)) < 1e-12

    @pytest.mark.parametrize("twice", [1, 2])
    def test_intertwines_parity_eigenspinors(self, twice):
        # t psi = psi_R x psi_L is a +1 eigenvector of the boosted swap when
        # psi is a parity eigenspinor (either sign)
        j = HalfInt(twice)
        d = j.block_dim
        for q in momenta(131 + twice, 15):
            A = swap_operator_at(j, q)
            basis = boosted_spinors(j, q)
            for w in basis.u + basis.v:
                t_psi = np.kron(w[:d], w[d:])
                assert np.linalg.norm(A @ t_psi - t_psi) <= 1e-9 * np.linalg.norm(t_psi)

    def test_boost_consistency(self):
        # tensor boost factorizes over the chiral blocks
        j = HalfInt(1)
        phi = np.array([0.2, -0.1, 0.4])
        from spinkin.kinematics import boost_matrix

        B = boost_matrix(rep_generators(j), phi)
        d = j.block_dim
        Bt = tensor_boost_matrix(j, phi)
        assert np.allclose(Bt, np.kron(B[:d, :d], B[d:, d:]), atol=1e-12)

    @pytest.mark.parametrize("phi", [(31.0, 0.0, 0.0), (0.0, np.nan, 0.0), (np.inf, 0.0, 0.0)])
    def test_tensor_boost_obeys_rapidity_cap(self, phi):
        # the same finiteness and cap checks as boost_matrix on (j,0)+(0,j)
        with pytest.raises(ValueError):
            tensor_boost_matrix(HalfInt(2), phi)
