"""Spin-j field equation, the on-shell involution identity, parity spectra,
least-squares gamma-tensor extraction, and the boosted tensor swap on
(j,0)x(0,j).

Field-equation evaluation always goes through the exponential form
exp(2i K.phi) eta, never the extracted tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial

import numpy as np

from .kinematics import (
    FourMomentum,
    MomentumBatch,
    boost_matrix,
    parity_operator,
    rapidity_from_momentum,
    sample_momenta,
)
from .linalg import stack_norm
from .reps import HalfInt, rep_generators, tensor_rep_generators

__all__ = [
    "field_equation_residual",
    "contraction_identity_residual",
    "parity_spectrum",
    "GammaTensor",
    "symmetric_multi_indices",
    "index_multiplicity",
    "extract_gamma_tensor",
    "tensor_boost_matrix",
    "swap_operator_at",
]


def field_equation_residual(
    j, psi: np.ndarray, q: FourMomentum | MomentumBatch, sign: int
) -> float | np.ndarray:
    """|| (P_j(q) - sign) psi || / ||psi|| with P_j the spin-j parity operator;
    boosted u (sign +1) and v (sign -1) spinors are exact solutions. For a
    batch of N momenta psi is one spinor or N of them, shape (N, dim), and the
    N residuals come back as an array."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    j = HalfInt.coerce(j)
    psi = np.asarray(psi, dtype=complex)
    norm = stack_norm(psi, 1)
    if (norm == 0.0).any():
        raise ValueError("spinor must be non-zero")
    P = parity_operator(rep_generators(j), q)
    r = stack_norm((P @ psi[..., None])[..., 0] - sign * psi, 1) / norm
    return float(r) if r.ndim == 0 else r


def contraction_identity_residual(j, q: FourMomentum | MomentumBatch) -> float | np.ndarray:
    """|| P_j(q)^2 - I ||_F / dim; certifies the on-shell contraction identity
    (the squared operator is (p.p)^{2j}/m^{4j} = 1) without the tensor. One
    residual per momentum of a batch."""
    j = HalfInt.coerce(j)
    P = parity_operator(rep_generators(j), q)
    r = stack_norm(P @ P - np.eye(j.dim), 2) / j.dim
    return float(r) if r.ndim == 0 else r


def parity_spectrum(j, q: FourMomentum) -> dict:
    """Eigenvalues (sorted by real part) and determinant of P_j(q).

    The spectrum is +-1 with multiplicities (2j+1, 2j+1); the determinant is
    the momentum-independent sign of the block-swap permutation, (-1)^(2j+1).
    """
    j = HalfInt.coerce(j)
    P = parity_operator(rep_generators(j), q)
    ev = np.linalg.eigvals(P)
    order = np.lexsort((ev.imag, ev.real))
    return {"eigenvalues": ev[order], "det": complex(np.linalg.det(P))}


def symmetric_multi_indices(degree: int) -> list[tuple[int, ...]]:
    """Sorted multi-indices (mu_1 <= ... <= mu_degree) over {0,1,2,3}."""
    return list(combinations_with_replacement(range(4), degree))


def index_multiplicity(idx: tuple[int, ...]) -> int:
    """Number of distinct orderings of the multiset idx (multinomial weight)."""
    counts: dict[int, int] = {}
    for i in idx:
        counts[i] = counts.get(i, 0) + 1
    n = factorial(len(idx))
    for c in counts.values():
        n //= factorial(c)
    return n


@dataclass(frozen=True)
class GammaTensor:
    """Symmetric rank-2j tensor of matrices, stored on sorted multi-indices.

    Contracting with p_mu ... p_mu on shell reproduces m^{2j} P_j(q) up to the
    recorded fit residual.
    """

    j: HalfInt
    components: dict[tuple[int, ...], np.ndarray]
    fit_residual: float

    def component(self, *index: int) -> np.ndarray:
        """Component for any index ordering (symmetric by construction)."""
        return self.components[tuple(sorted(index))]

    def contract(self, q: FourMomentum) -> np.ndarray:
        """gamma^{mu_1...mu_2j} p_{mu_1} ... p_{mu_2j} (lower-index momenta)."""
        plow = q.lower
        dim = self.j.dim
        out = np.zeros((dim, dim), dtype=complex)
        for idx, mat in self.components.items():
            out = out + index_multiplicity(idx) * np.prod(plow[list(idx)]) * mat
        return out

    def reconstruction_residual(self, momenta: list[FourMomentum]) -> float:
        """max over momenta of the relative error against m^{2j} P_j(q)."""
        rep = rep_generators(self.j)
        worst = 0.0
        for q in momenta:
            target = q.m ** self.j.twice * parity_operator(rep, q)
            r = np.linalg.norm(self.contract(q) - target) / np.linalg.norm(target)
            worst = max(worst, float(r))
        return worst


def extract_gamma_tensor(j, sample_count: int, seed: int = 0) -> GammaTensor:
    """Least-squares fit of the degree-2j symmetric tensor to m^{2j} P_j(q).

    On-shell samples at random masses in [0.5, 2] with |p| <= 2m pin the
    tensor up to numerical rank; the minimum-Frobenius-norm solution is taken
    (lstsq). Raises if the sampled design matrix is rank-deficient (resample
    with a new seed).
    """
    j = HalfInt.coerce(j)
    idxs = symmetric_multi_indices(j.twice)
    if sample_count < 3 * len(idxs):
        raise ValueError(f"sample_count must be >= {3 * len(idxs)} for 2j = {j.twice}")
    rep = rep_generators(j)
    rng = np.random.default_rng(seed)
    momenta = sample_momenta(rng, sample_count, mass_range=(0.5, 2.0), momentum_factor=2.0)

    design = np.zeros((sample_count, len(idxs)))
    for s, q in enumerate(momenta):
        plow = q.lower
        scale = q.m ** (-j.twice)  # fit P itself to keep rows well scaled
        for k, idx in enumerate(idxs):
            design[s, k] = index_multiplicity(idx) * np.prod(plow[list(idx)]) * scale
    targets = parity_operator(rep, momenta).reshape(sample_count, -1)

    solution, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < len(idxs):
        raise ValueError(
            f"rank-deficient sample set ({rank} < {len(idxs)}); resample with a new seed"
        )
    components = {idx: solution[k].reshape(j.dim, j.dim) for k, idx in enumerate(idxs)}
    tensor = GammaTensor(j=j, components=components, fit_residual=0.0)
    residual = tensor.reconstruction_residual(momenta)
    return GammaTensor(j=j, components=components, fit_residual=residual)


def tensor_boost_matrix(j, phi) -> np.ndarray:
    """exp(i K.phi) on (j,0)x(0,j) (Hermitian positive definite); a stack
    (..., 3) of rapidities gives a stack of matrices."""
    return boost_matrix(tensor_rep_generators(j), phi)


def swap_operator_at(j, q: FourMomentum | MomentumBatch) -> np.ndarray:
    """The boosted swap family A(q) = B(phi) S B(phi)^-1 = B(2 phi) S on
    (j,0)x(0,j), since S anti-commutes with the boost generators.

    For psi = (psi_R, psi_L) a parity eigenspinor at q, psi_R tensor psi_L is a
    +1 eigenvector of A(q)."""
    return tensor_boost_matrix(j, 2.0 * rapidity_from_momentum(q)) @ tensor_rep_generators(j).eta
