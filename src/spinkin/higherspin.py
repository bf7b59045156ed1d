"""Spin-j field equation, the involution certificate of P_j(q), the exact
symmetric gamma tensor, and the boosted tensor swap on (j,0)x(0,j).

Field-equation evaluation always goes through parity_operator, the
polynomial offdiag(Sym^{2j}((E + sigma.p)/m), Sym^{2j}((E - sigma.p)/m)) =
exp(2i K.phi) eta, never the gamma tensor. The tensor's components are
that polynomial's coefficients, read off the same Sym^{2j} table.

P_j(q) is memoised read-only on the FourMomentum it was evaluated at and
freed with it, so the u (+1) and v (-1) field equations at one momentum
object share one operator: field_equation_residual reads it from the memo
before it builds the generators, and on a hit builds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod

import numpy as np

from .kinematics import FourMomentum, _recall, boost_matrix, parity_operator, rapidity_from_momentum
from .linalg import _scalar_or_stack, stack_norm
from .reps import HalfInt, _symmetric_power_table, adjugate_power, rep_generators, tensor_rep_generators

__all__ = [
    "field_equation_residual",
    "involution_certificate",
    "GammaTensor",
    "symmetric_multi_indices",
    "index_multiplicity",
    "gamma_tensor",
    "tensor_boost_matrix",
    "swap_operator_at",
]

CERTIFICATE_TOL = 1e-7  # ||P^2 - I||_F bound of involution_certificate and check all


def field_equation_residual(j, psi: np.ndarray, q: FourMomentum, sign: int) -> float | np.ndarray:
    """|| (P_j(q) - sign) psi || / ||psi|| with P_j the spin-j parity operator;
    boosted u (sign +1) and v (sign -1) spinors are exact solutions. For a
    batch of N momenta psi is one spinor, N of them (N, dim), or k sets of N
    (k, N, dim); P_j(q) is evaluated once and the (N,) or (k, N) residuals
    come back as an array. A P_j(q) already memoised on q is reused, with
    no generators built."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    j = HalfInt.coerce(j)
    psi = np.asarray(psi, dtype=complex)
    norm = stack_norm(psi, 1)
    if (norm == 0.0).any():
        raise ValueError("spinor must be non-zero")
    P = _recall(q, "parity", j, False)
    if P is None:
        P = parity_operator(rep_generators(j), q)
    r = stack_norm((P @ psi[..., None])[..., 0] - sign * psi, 1) / norm
    return _scalar_or_stack(r)


def involution_certificate(P: np.ndarray) -> dict:
    """||P^2 - I||_F, whether it is within CERTIFICATE_TOL, and the counts
    n+- = rint((dim +- Re tr P)/2) of +1 and -1, for one P_j(q) or N of each
    for a stack. P ~ eta has spectrum +-1, each 2j+1 times, so det P =
    (-1)^(n-); the counts hold only with the square, as |lam^2 - 1| <=
    ||P^2 - I||_F (for the block swap tr P = 0, so they read 2j+1 at any
    momentum). No eigensolver: P is not normal, so eigenvalues move ~eps ||P||^2."""
    dim = P.shape[-1]
    trace = np.trace(P, axis1=-2, axis2=-1).real
    square = stack_norm(P @ P - np.eye(dim), 2)
    plus, minus = (np.rint((dim + sign * trace) / 2).astype(int) for sign in (1, -1))
    square, plus, minus = map(_scalar_or_stack, (square, plus, minus))
    n = {"+1": plus, "-1": minus}
    return {"square_residual": square, "certified": square <= CERTIFICATE_TOL, "multiplicities": n}


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

    Contracting with p_mu ... p_mu on shell gives m^{2j} P_j(q).
    """

    j: HalfInt
    components: dict[tuple[int, ...], np.ndarray]

    def component(self, *index: int) -> np.ndarray:
        """Component for any index ordering (symmetric by construction)."""
        return self.components[tuple(sorted(index))]

    def contract(self, q: FourMomentum) -> np.ndarray:
        """gamma^{mu_1...mu_2j} p_{mu_1} ... p_{mu_2j} (lower-index momenta);
        a stack of momenta of shape S gives S + (dim, dim). Each monomial is
        a chain of elementwise products, so a stacked entry equals its single
        call bit for bit."""
        plow = q.lower
        dim = self.j.dim
        out = np.zeros(plow.shape[:-1] + (dim, dim), dtype=complex)
        for idx, mat in self.components.items():
            monomial = float(index_multiplicity(idx))
            for mu in idx:
                monomial = monomial * plow[..., mu]
            out = out + monomial[..., None, None] * mat
        return out


# the entries g11, g12, g21, g22 of g = E + sigma.p in the lower-index
# momentum, each as its two terms (mu, coefficient of p_mu)
_G_LOWER = (((0, 1), (3, -1)), ((1, -1), (2, 1j)), ((1, -1), (2, -1j)), ((0, 1), (3, 1)))


def _binomial_terms(entry, k: int) -> list:
    """The k + 1 terms (multi-index, weight) of (c_x p_x + c_y p_y)^k."""
    (x, cx), (y, cy) = entry
    return [((x,) * (k - i) + (y,) * i, comb(k, i) * cx ** (k - i) * cy**i) for i in range(k + 1)]


def gamma_tensor(j) -> GammaTensor:
    """The exact symmetric tensor with gamma^{mu_1...mu_2j} p_{mu_1} ...
    p_{mu_2j} = m^{2j} P_j(q), read off the Sym^{2j} monomial table of
    reps.symmetric_power.

    m^{2j} P_j(q) is parity_operator's lift of Sym^{2j}(g), g = E + sigma.p.
    Each monomial g11^a g12^b g21^c g22^e of the table expands binomially
    into monomials of p_mu with Gaussian-integer weights; a component is
    those weights summed into Sym^{2j}'s entries as symmetric_power sums
    its monomials, over the multiplicity of its multi-index,
    lifted as parity_operator lifts. At 2j = 1 the components are
    gamma_matrices().gamma.
    """
    j = HalfInt.coerce(j)
    _, _, weight, _, monomials, starts = _symmetric_power_table(j.twice)
    idxs = symmetric_multi_indices(j.twice)
    position = {idx: k for k, idx in enumerate(idxs)}
    weights = np.zeros((len(idxs), len(weight)), dtype=complex)
    # row r of the table is g11^a g12^b g21^c g22^e, (a, b, c, e) = monomials[r]
    for r, powers in enumerate(monomials.tolist()):
        for terms in product(*map(_binomial_terms, _G_LOWER, powers)):
            mus, w = zip(*terms)
            weights[position[tuple(sorted(sum(mus, ())))], r] += prod(w)
    multiplicity = np.array([index_multiplicity(idx) for idx in idxs], dtype=float)
    S = np.add.reduceat(weights * weight, starts, axis=-1).reshape(-1, j.block_dim, j.block_dim)
    S /= multiplicity[:, None, None]
    gammas = rep_generators(j).lift(S, adjugate_power(S), swap=True)
    return GammaTensor(j=j, components=dict(zip(idxs, gammas)))


def tensor_boost_matrix(j, phi) -> np.ndarray:
    """exp(i K.phi) = Sym^{2j}(A) x Sym^{2j}(A^-1) on (j,0)x(0,j), with
    A = exp(sigma.phi/2) (Hermitian positive definite); a stack (..., 3) of
    rapidities gives a stack of matrices."""
    return boost_matrix(tensor_rep_generators(j), phi)


def swap_operator_at(j, q: FourMomentum) -> np.ndarray:
    """The boosted swap family A(q) = B(phi) S B(phi)^-1 = B(2 phi) S on
    (j,0)x(0,j), since S anti-commutes with the boost generators.

    For psi = (psi_R, psi_L) a parity eigenspinor at q, psi_R tensor psi_L is a
    +1 eigenvector of A(q)."""
    # S is a permutation, so the product with it is a gather of columns
    eta_index = tensor_rep_generators(j).eta_index
    return np.take(tensor_boost_matrix(j, 2.0 * rapidity_from_momentum(q)), eta_index, axis=-1)
