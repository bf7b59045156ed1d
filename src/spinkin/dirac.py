"""Spin-1/2 gamma matrices, the momentum-space Dirac operator, and the u/v
eigenspinor bases (built for any spin; the gamma matrices are the j = 1/2 case).

Gamma convention: chiral basis fixed by the boost block ordering, gamma^0 =
offdiag(I, I) and gamma^i = [[0, -sigma_i], [sigma_i, 0]], which makes
gamma^mu p_mu equal m times the parity operator.

A FourMomentum of stack shape S gives S-shaped stacks of operators and
bases, and a mass array of shape S the S-shaped stack of rest bases; one
momentum or one mass is the stack with no leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .kinematics import FourMomentum, boost_matrix, check_mass, rapidity_from_momentum
from .reps import HalfInt, pauli_matrices, rep_generators

__all__ = [
    "GammaSet",
    "gamma_matrices",
    "dirac_operator",
    "SpinorBasis",
    "rest_spinors",
    "boost_basis",
    "boosted_spinors",
    "dirac_residual",
]


@dataclass(frozen=True)
class GammaSet:
    """The four 4x4 Dirac matrices; {gamma^mu, gamma^nu} = 2 g^{mu nu} I with
    g = diag(+,-,-,-), and gamma^0 equals the chiral swap eta."""

    gamma: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def slash(self, q: FourMomentum) -> np.ndarray:
        """gamma^mu p_mu = gamma^0 E - sum_i gamma^i p^i; S + (4, 4) for a
        stack of momenta of shape S.

        One product of the lower-index momenta with the real view of the
        stacked gammas: each entry of the result has at most two non-zero
        terms, so it rounds as the term-by-term sum does."""
        p = q.lower
        rows = np.array(self.gamma).view(float).reshape(4, -1)
        return (p @ rows).view(complex).reshape(p.shape[:-1] + (4, 4))


def gamma_matrices() -> GammaSet:
    """The chiral-basis gamma matrices; built once, every call returns the same
    GammaSet with read-only arrays."""
    return _gamma_set()


@cache
def _gamma_set() -> GammaSet:
    sx, sy, sz = pauli_matrices()
    Z = np.zeros((2, 2), dtype=complex)
    I = np.eye(2, dtype=complex)
    g0 = np.block([[Z, I], [I, Z]])
    gi = tuple(np.block([[Z, -s], [s, Z]]) for s in (sx, sy, sz))
    for g in (g0, *gi):
        g.flags.writeable = False
    return GammaSet(gamma=(g0, *gi))


def dirac_operator(q: FourMomentum) -> np.ndarray:
    """gamma^mu p_mu; equals m * parity_operator(j=1/2, q)."""
    return gamma_matrices().slash(q)


@dataclass(frozen=True)
class SpinorBasis:
    """Labeled u/v spinor sets of the (j,0)+(0,j) space.

    When mass is set, every spinor has norm sqrt(2m); the full set of 2(2j+1)
    spinors is linearly independent. A stack of bases has a mass array of
    its stack shape S and spinors of shape S + (dim,).
    """

    j: HalfInt
    mass: float | np.ndarray | None
    u: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]

    @property
    def spinors(self) -> tuple[np.ndarray, ...]:
        return self.u + self.v

    def stack(self) -> np.ndarray:
        """Matrix with the u then v spinors as columns, S + (dim, dim) for a stack."""
        return np.stack(self.spinors, axis=-1)

    def at_mass(self, mass) -> "SpinorBasis":
        """This basis without a mass (spinors of norm sqrt 2) scaled by
        sqrt(mass) to spinor norms sqrt(2m). An array of masses gives the
        stack of bases of its shape."""
        if self.mass is not None:
            raise ValueError("basis already carries a mass")
        mass = check_mass(mass)
        W = np.array(self.spinors)
        W = np.sqrt(mass)[..., None] * W.reshape(W.shape[:1] + (1,) * mass.ndim + W.shape[1:])
        n_u = len(self.u)
        return SpinorBasis(j=self.j, mass=mass, u=tuple(W[:n_u]), v=tuple(W[n_u:]))


def rest_spinors(j, mass: float | np.ndarray | None = None) -> SpinorBasis:
    """Rest-frame parity eigenbasis: u_s(0) = c(theta_s, theta_s) with eta
    eigenvalue +1 and v_s(0) = c(theta_s, -theta_s) with eigenvalue -1.

    theta_s runs over the J_z eigenbasis; c = sqrt(mass) gives norm sqrt(2m)
    (c = 1 when no mass is supplied). Any rest spinor (theta, lambda) splits as
    the half-sum of a u and a v spinor. An array of masses gives the stack
    of bases of its shape.
    """
    j = HalfInt.coerce(j)
    eye = np.eye(j.block_dim, dtype=complex)
    u = np.concatenate([eye, eye], axis=1)
    v = np.concatenate([eye, -eye], axis=1)
    basis = SpinorBasis(j=j, mass=None, u=tuple(u), v=tuple(v))
    return basis if mass is None else basis.at_mass(mass)


def boost_basis(basis: SpinorBasis, q: FourMomentum) -> SpinorBasis:
    """Boost every spinor of a rest basis to momentum q: w(q) = B(phi) w(0).
    A stack of momenta takes the stack of rest bases with the same masses."""
    if basis.mass is None:
        raise ValueError("basis must carry a mass")
    if (np.abs(basis.mass - q.m) > 1e-12 * np.maximum(1.0, q.m)).any():
        raise ValueError(f"basis mass {basis.mass} does not match momentum mass {q.m}")
    B = boost_matrix(rep_generators(basis.j), rapidity_from_momentum(q))
    # every spinor in one product: W[k] = B w_k, for all momenta of a stack
    W = (B @ np.array(basis.spinors)[..., None])[..., 0]
    n_u = len(basis.u)
    return SpinorBasis(j=basis.j, mass=basis.mass, u=tuple(W[:n_u]), v=tuple(W[n_u:]))


def boosted_spinors(j, q: FourMomentum) -> SpinorBasis:
    """u_s(q) = B(phi) u_s(0), v_s(q) = B(phi) v_s(0); each is a +-1 eigenvector
    of the parity operator at q."""
    return boost_basis(rest_spinors(j, mass=q.m), q)


def dirac_residual(psi: np.ndarray, q: FourMomentum, sign: int) -> float:
    """|| (gamma^mu p_mu - sign*m) psi || / (m ||psi||); zero exactly when psi
    solves its sign's Dirac equation."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ValueError("spinor must be non-zero")
    op = dirac_operator(q) - sign * q.m * np.eye(4, dtype=complex)
    return float(np.linalg.norm(op @ psi) / (q.m * norm))
