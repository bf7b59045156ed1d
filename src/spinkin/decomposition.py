"""The index-flipping operator Xi from the 2m-orthogonality relations, the
spinor-defined involution K(p), and the decomposition gamma^mu p_mu = m K Xi.

For spin j > 1/2 the comparison target is m P_j(q) (the spin-j parity
operator); the gamma^mu p_mu identity itself is the j = 1/2 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import SpinorBasis, boost_basis, dirac_operator
from .elko import Cx2Basis, elko_basis, helicity_spinors
from .kinematics import FourMomentum, KinematicOperatorFamily, check_mass, parity_operator
from .reps import HalfInt, rep_generators

__all__ = [
    "NonHermitianBasisError",
    "elko_rest_basis",
    "xi_tilde_at_rest",
    "k_operator",
    "hermiticity_condition",
    "completeness_residual",
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
    (u_plus, v_plus), the v-set the -1 eigenspace, all scaled to norm sqrt(2m).
    """
    check_mass(mass)
    u2, v2 = helicity_spinors(np.asarray(direction, dtype=float))
    eb = elko_basis(Cx2Basis(u=u2, v=v2))
    c = np.sqrt(mass)  # each Elko spinor has norm sqrt(2) for unit u
    return SpinorBasis(
        j=HalfInt(1),
        mass=mass,
        u=(c * eb.u_plus, c * eb.v_plus),
        v=(c * eb.u_minus, c * eb.v_minus),
    )


def xi_tilde_at_rest(basis: SpinorBasis) -> np.ndarray:
    """Solve the orthogonality relations for tilde-Xi(0).

    The unknown X = tilde-Xi(0)^dagger satisfies, over all basis labels,
        u^dag X eta u' = 2m delta,   u^dag X eta v' = 0,
        v^dag X eta u' = 0,          v^dag X eta v' = -2m delta,
    a dense linear system with 4(2j+1)^2 rows in the d^2 unknowns. Full column
    rank, with the smallest singular value above 1e-10 of the largest, is
    asserted (the operator is unique); returns tilde-Xi(0) = X^dagger.
    """
    if basis.mass is None:
        raise ValueError("basis must carry a mass (norms sqrt(2m))")
    m = basis.mass
    eta = rep_generators(basis.j).eta
    spinors = basis.spinors
    n_u = len(basis.u)
    rows = []
    targets = []
    for ia, wa in enumerate(spinors):
        for ib, wb in enumerate(spinors):
            # w_a^dag X (eta w_b) is linear in X: row = conj(w_a) kron (eta w_b)
            rows.append(np.kron(np.conj(wa), eta @ wb))
            if ia == ib:
                targets.append(2.0 * m if ia < n_u else -2.0 * m)
            else:
                targets.append(0.0)
    system = np.array(rows)
    rhs = np.array(targets, dtype=complex)
    solution, _, rank, sv = np.linalg.lstsq(system, rhs, rcond=None)
    d = basis.j.dim
    if rank < d * d or sv[-1] <= 1e-10 * sv[0]:
        raise ValueError("degenerate spinor basis: constraint system is singular")
    residual = np.linalg.norm(system @ solution - rhs)
    if residual > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise ValueError(f"orthogonality constraints are inconsistent (residual {residual:.3e})")
    X = solution.reshape(d, d)
    return X.conj().T


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
    if basis.mass is None:
        raise ValueError("basis must carry a mass")
    worst = max(abs(np.vdot(a, b)) for a in basis.u for b in basis.v)
    return bool(worst <= 1e-10 * 2.0 * basis.mass)


def completeness_residual(basis: SpinorBasis) -> float:
    """|| sum_s (u u^dag + v v^dag) - 2m I ||_F; zero in the Hermitian case."""
    if basis.mass is None:
        raise ValueError("basis must carry a mass")
    d = basis.j.dim
    acc = np.zeros((d, d), dtype=complex)
    for w in basis.spinors:
        acc += np.outer(w, np.conj(w))
    return float(np.linalg.norm(acc - 2.0 * basis.mass * np.eye(d)))


@dataclass(frozen=True)
class Decomposition:
    """The factors K(q), Xi(q) of m K(q) Xi(q) and its relative residual
    against gamma^mu p_mu (m P_j(q) for j > 1/2)."""

    K: np.ndarray
    Xi: np.ndarray
    residual: float


def decomposition_residual(basis: SpinorBasis, q: FourMomentum) -> Decomposition:
    """Factors and relative residual of gamma^mu p_mu = m K(q) Xi(q) for a
    Hermitian rest basis, with Xi(q) = B tilde-Xi(0)^dagger B^-1.

    Raises NonHermitianBasisError outside the Hermitian case. For j > 1/2 the
    left side is m P_j(q) instead of gamma^mu p_mu.
    """
    if not hermiticity_condition(basis):
        raise NonHermitianBasisError(
            "rest basis is not Hermitian-orthogonal; the elaborated Xi definition is out of scope"
        )
    rep = rep_generators(basis.j)
    xi0 = xi_tilde_at_rest(basis).conj().T  # Xi(0) = tilde-Xi(0)^dagger
    Xi_q = KinematicOperatorFamily(rep, xi0).matrix_at(q)
    K_q = k_operator(basis, q)
    if basis.j == HalfInt(1):
        target = dirac_operator(q)
    else:
        target = q.m * parity_operator(rep, q)
    residual = float(np.linalg.norm(target - q.m * K_q @ Xi_q) / np.linalg.norm(target))
    return Decomposition(K=K_q, Xi=Xi_q, residual=residual)
