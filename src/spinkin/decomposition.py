"""The index-flipping operator Xi from the 2m-orthogonality relations, the
spinor-defined involution K(p), and the decomposition gamma^mu p_mu = m K Xi.

For spin j > 1/2 the comparison target is m P_j(q) (the spin-j parity
operator); the gamma^mu p_mu identity itself is the j = 1/2 case. A stack of
rest bases (a mass array) with a FourMomentum stack of the same masses is
decomposed in one stacked call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import SpinorBasis, _basis_at_mass, boost_basis, dirac_operator
from .elko import Cx2Basis, elko_basis, helicity_spinors
from .kinematics import FourMomentum, KinematicOperatorFamily, _boost_at, check_mass, parity_operator
from .linalg import _scalar_or_stack, stack_norm
from .reps import HalfInt, rep_generators

__all__ = [
    "NonHermitianBasisError",
    "elko_rest_basis",
    "xi_tilde_at_rest",
    "k_operator",
    "hermiticity_condition",
    "Decomposition",
    "decomposition_residual",
]


class NonHermitianBasisError(ValueError):
    """Raised when a rest basis does not make K(0) Hermitian (the u and v spans
    are not Hermitian-orthogonal); that case requires a more elaborate Xi
    definition and is out of scope."""


def elko_rest_basis(mass: float, direction=(0.0, 0.0, 1.0)) -> SpinorBasis:
    """Spin-1/2 rest basis from charge-conjugation eigenspinors built on the
    helicity eigenvectors of sigma.n-hat: the u-set is the +1 eigenspace
    (u_plus, v_plus), the v-set the -1 eigenspace, all scaled to norm sqrt(2m)
    (a 1-d array of masses gives the batch of bases).
    """
    u2, v2 = helicity_spinors(np.asarray(direction, dtype=float))
    eb = elko_basis(Cx2Basis(u=u2, v=v2))
    # each Elko spinor has norm sqrt(2) for unit u
    return _basis_at_mass(HalfInt(1), np.array([eb.u_plus, eb.v_plus, eb.u_minus, eb.v_minus]), 2, mass)


def xi_tilde_at_rest(basis: SpinorBasis) -> np.ndarray:
    """Solve the orthogonality relations for tilde-Xi(0).

    The unknown X = tilde-Xi(0)^dagger satisfies, over all basis labels,
        u^dag X eta u' = 2m delta,   u^dag X eta v' = 0,
        v^dag X eta u' = 0,          v^dag X eta v' = -2m delta,
    that is W^dag X eta W = 2m S with W the basis as columns and
    S = diag(+1 on u, -1 on v). For a square W of full rank the solution is
    unique: tilde-Xi(0) = eta W^-dag (2m S) W^-1. As a linear system in the
    d^2 entries of X the relations have the matrix W^dag kron (eta W)^T,
    whose singular values are the products of two of W's; the smallest of
    them, sigma_min(W)^2, is asserted above 1e-10 of the largest for every
    basis (as sigma_min(W) > 1e-5 sigma_max(W), unsquared, so no square
    overflows), and the solution residual over 2m, ||W^dag X eta W / 2m -
    S||_F, within 1e-8 of ||S||_F, so an inconsistent basis is refused at
    any mass scale. A mass whose 2m overflows is refused. A stack of bases
    is solved in one stacked call; returns tilde-Xi(0) (S + (d, d) for a
    stack of shape S).
    """
    mass = check_mass(basis.mass)
    W = basis.stack()
    d, n_w = W.shape[-2:]
    if n_w != d:
        raise ValueError(f"degenerate spinor basis: {n_w} spinors in dimension {d}")
    sv = np.linalg.svd(W, compute_uv=False)
    if not (sv[..., -1] > 1e-5 * sv[..., 0]).all():
        raise ValueError("degenerate spinor basis: constraint system is singular")
    if not (mass <= np.finfo(float).max / 2).all():
        raise ValueError(f"2m overflows double precision (m = {np.max(mass):g}); rescale the mass")
    two_m = 2.0 * mass[..., None, None]
    S = np.diag([1.0] * len(basis.u) + [-1.0] * len(basis.v))
    W_inv = np.linalg.solve(W, np.eye(d))
    # X eta = W^-dag (2m S) W^-1, and eta^2 = I
    X_eta = W_inv.conj().swapaxes(-1, -2) @ (two_m * S) @ W_inv
    # judged over 2m, so at every mass scale; a nan (an overflow) fails `<=`
    with np.errstate(over="ignore", invalid="ignore"):
        residual = stack_norm(W.conj().swapaxes(-1, -2) @ X_eta @ W / two_m - S, 2)
    bad = ~(residual <= 1e-8 * np.sqrt(d))
    if bad.any():
        raise ValueError(f"orthogonality constraints are inconsistent (residual {residual[bad].flat[0]:.3e} of 2m)")
    # eta is a permutation, so the product with it is a gather of rows
    return np.take(X_eta, rep_generators(basis.j).eta_index, axis=-2)


def k_operator(basis: SpinorBasis, q: FourMomentum) -> np.ndarray:
    """The unique linear operator with K u_s(q) = u_s(q), K v_s(q) = -v_s(q),
    built from the boosted basis; K^2 = I and trace K = 0."""
    boosted = boost_basis(basis, q)
    W = boosted.stack()
    signs = np.array([1.0] * len(basis.u) + [-1.0] * len(basis.v))
    return (W * signs) @ np.linalg.inv(W)


def hermiticity_condition(basis: SpinorBasis) -> bool:
    """True iff the u-span and v-span are Hermitian-orthogonal at rest
    (equivalently K(0) is Hermitian): max |u^dag v| <= 1e-10 * 2m."""
    overlaps = np.abs([np.vecdot(a, b) for a in basis.u for b in basis.v])
    return bool(np.all(overlaps <= 1e-10 * 2.0 * check_mass(basis.mass)))


@dataclass(frozen=True)
class Decomposition:
    """The factors K(q), Xi(q) of m K(q) Xi(q) and its relative residual
    against gamma^mu p_mu (m P_j(q) for j > 1/2); stacks and an (N,) residual
    array for a batch."""

    K: np.ndarray
    Xi: np.ndarray
    residual: float | np.ndarray


def decomposition_residual(basis: SpinorBasis, q: FourMomentum) -> Decomposition:
    """Factors and relative residual of gamma^mu p_mu = m K(q) Xi(q) for a
    Hermitian rest basis, with Xi(q) = B tilde-Xi(0)^dagger B^-1.

    Both sides are judged over m, as ||gamma.p/m - K Xi||_F / ||gamma.p/m||_F,
    so the residual is the same relative one at every mass scale. Raises
    NonHermitianBasisError outside the Hermitian case, and ValueError where
    gamma.p/m or the residual is not finite (an entry E + |p| overflows).
    For j > 1/2 the left side is m P_j(q) instead of gamma^mu p_mu.
    """
    if not hermiticity_condition(basis):
        raise NonHermitianBasisError(
            "rest basis is not Hermitian-orthogonal; the elaborated Xi definition is out of scope"
        )
    rep = rep_generators(basis.j)
    xi0 = np.conj(np.swapaxes(xi_tilde_at_rest(basis), -1, -2))  # Xi(0) = tilde-Xi(0)^dagger
    # a batch has one rest matrix per momentum, conjugated by that momentum's
    # boost (matrix_at would take the rest matrices for a family stack); the
    # boost is memoised on q, and k_operator's boost_basis reads it back
    Xi_q = KinematicOperatorFamily(rep, xi0).conjugated(_boost_at(rep, q), xi0)
    K_q = k_operator(basis, q)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if basis.j == HalfInt(1):
            target = dirac_operator(q) / q.m[..., None, None]
        else:
            target = parity_operator(rep, q)
        scale = stack_norm(target, 2)
        r = stack_norm(target - K_q @ Xi_q, 2) / scale
    # an infinite scale would turn a finite difference into a residual of 0
    if not (np.isfinite(scale).all() and np.isfinite(r).all()):
        raise ValueError("the decomposition residual is not finite in double precision; rescale the momentum")
    return Decomposition(K=K_q, Xi=Xi_q, residual=_scalar_or_stack(r))
