import numpy as np
import pytest

from conftest import momenta
from spinkin.dirac import boosted_spinors, gamma_matrices, rest_spinors
from spinkin.higherspin import (
    contraction_identity_residual,
    extract_gamma_tensor,
    field_equation_residual,
    index_multiplicity,
    parity_spectrum,
    swap_operator_at,
    symmetric_multi_indices,
    tensor_boost_matrix,
)
from spinkin.kinematics import FourMomentum, parity_operator, sample_momenta
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


class TestContractionIdentity:
    def test_spin_half_tight(self):
        for q in momenta(107, 25):
            assert contraction_identity_residual(HalfInt(1), q) <= 1e-11

    def test_spin_two_at_five_m(self):
        # worst conditioning: 8th-power products in the square
        rng = np.random.default_rng(109)
        for _ in range(10):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            m = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            q = FourMomentum(m, tuple(5.0 * m * d))
            assert contraction_identity_residual(HalfInt(4), q) <= 1e-7

    def test_rest_exact_zero(self):
        for twice in (1, 2, 3, 4):
            q = FourMomentum(2.5, (0, 0, 0))
            assert contraction_identity_residual(HalfInt(twice), q) == 0.0


class TestParitySpectrum:
    # block-swap permutation sign: +1, -1, +1, -1 for 2j = 1..4
    @pytest.mark.parametrize("twice,det", [(1, 1.0), (2, -1.0), (3, 1.0), (4, -1.0)])
    def test_det_momentum_independent(self, twice, det):
        for q in momenta(113 + twice, 10):
            out = parity_spectrum(HalfInt(twice), q)
            assert out["det"].real == pytest.approx(det, abs=1e-8)
            assert abs(out["det"].imag) < 1e-8

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_eigenvalue_multiplicities(self, twice):
        j = HalfInt(twice)
        for q in momenta(127 + twice, 10):
            ev = parity_spectrum(j, q)["eigenvalues"]
            assert np.all(np.abs(np.abs(ev.real) - 1.0) < 1e-7)
            assert np.all(np.abs(ev.imag) < 1e-7)
            assert int(np.sum(ev.real > 0)) == j.block_dim
            assert int(np.sum(ev.real < 0)) == j.block_dim


    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_batch_matches_per_momentum_loop(self, twice):
        batch = momenta(131 + twice, 12)
        out = parity_spectrum(HalfInt(twice), batch)
        assert out["eigenvalues"].shape == (12, 2 * (twice + 1)) and out["det"].shape == (12,)
        for k, q in enumerate(batch):
            single = parity_spectrum(HalfInt(twice), q)
            assert np.array_equal(out["eigenvalues"][k], single["eigenvalues"])
            assert out["det"][k] == single["det"] and type(single["det"]) is complex
            # sorted by real part, then imaginary part
            ev = single["eigenvalues"]
            assert list(ev) == sorted(ev, key=lambda z: (z.real, z.imag))


class TestGammaTensorExtraction:
    def test_multi_index_bookkeeping(self):
        assert len(symmetric_multi_indices(1)) == 4
        assert len(symmetric_multi_indices(2)) == 10
        assert index_multiplicity((0, 0)) == 1
        assert index_multiplicity((0, 1)) == 2
        assert index_multiplicity((0, 1, 2)) == 6

    def test_spin_half_recovers_gammas(self):
        tensor = extract_gamma_tensor(HalfInt(1), 52, seed=11)
        g = gamma_matrices().gamma
        for mu in range(4):
            assert np.max(np.abs(tensor.components[(mu,)] - g[mu])) < 1e-8

    def test_symmetric_storage(self):
        tensor = extract_gamma_tensor(HalfInt(2), 70, seed=12)
        assert tensor.component(0, 1) is tensor.component(1, 0)

    def test_spin_one_heldout_reconstruction(self):
        tensor = extract_gamma_tensor(HalfInt(2), 70, seed=13)
        heldout = sample_momenta(np.random.default_rng(14), 40, (0.5, 2.0), 2.0)
        assert tensor.reconstruction_residual(heldout) <= 1e-7
        assert tensor.fit_residual <= 1e-7

    def test_contract_matches_operator(self):
        tensor = extract_gamma_tensor(HalfInt(2), 70, seed=15)
        rep = rep_generators(HalfInt(2))
        q = FourMomentum(1.2, (0.3, -0.5, 0.8))
        target = q.m**2 * parity_operator(rep, q)
        assert np.linalg.norm(tensor.contract(q) - target) < 1e-8 * np.linalg.norm(target)

    def test_sample_count_precondition(self):
        with pytest.raises(ValueError):
            extract_gamma_tensor(HalfInt(2), 29, seed=0)


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
