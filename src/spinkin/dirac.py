"""Spin-1/2 gamma matrices, the momentum-space Dirac operator, and the u/v
eigenspinor bases (built for any spin; the gamma matrices are the j = 1/2 case).

Gamma convention: chiral basis fixed by the boost block ordering, gamma^0 =
offdiag(I, I) and gamma^i = [[0, -sigma_i], [sigma_i, 0]], which makes
gamma^mu p_mu equal m times the parity operator.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        """gamma^mu p_mu = gamma^0 E - sum_i gamma^i p^i."""
        out = self.gamma[0] * q.E
        for i in range(3):
            out = out - self.gamma[i + 1] * q.p[i]
        return out


def gamma_matrices() -> GammaSet:
    sx, sy, sz = pauli_matrices()
    Z = np.zeros((2, 2), dtype=complex)
    I = np.eye(2, dtype=complex)
    g0 = np.block([[Z, I], [I, Z]])
    gi = tuple(np.block([[Z, -s], [s, Z]]) for s in (sx, sy, sz))
    return GammaSet(gamma=(g0, *gi))


def dirac_operator(q: FourMomentum) -> np.ndarray:
    """gamma^mu p_mu; equals m * parity_operator(j=1/2, q)."""
    return gamma_matrices().slash(q)


@dataclass(frozen=True)
class SpinorBasis:
    """Labeled u/v spinor sets of the (j,0)+(0,j) space.

    When mass is set, every spinor has norm sqrt(2m); the full set of 2(2j+1)
    spinors is linearly independent.
    """

    j: HalfInt
    mass: float | None
    u: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]

    @property
    def spinors(self) -> tuple[np.ndarray, ...]:
        return self.u + self.v

    def stack(self) -> np.ndarray:
        """Matrix with the u then v spinors as columns."""
        return np.column_stack(self.spinors)


def rest_spinors(j, mass: float | None = None) -> SpinorBasis:
    """Rest-frame parity eigenbasis: u_s(0) = c(theta_s, theta_s) with eta
    eigenvalue +1 and v_s(0) = c(theta_s, -theta_s) with eigenvalue -1.

    theta_s runs over the J_z eigenbasis; c = sqrt(mass) gives norm sqrt(2m)
    (c = 1 when no mass is supplied). Any rest spinor (theta, lambda) splits as
    the half-sum of a u and a v spinor.
    """
    j = HalfInt.coerce(j)
    if mass is not None:
        check_mass(mass)
    c = 1.0 if mass is None else float(np.sqrt(mass))
    d = j.block_dim
    us, vs = [], []
    for s in range(d):
        theta = np.zeros(d, dtype=complex)
        theta[s] = 1.0
        us.append(c * np.concatenate([theta, theta]))
        vs.append(c * np.concatenate([theta, -theta]))
    return SpinorBasis(j=j, mass=mass, u=tuple(us), v=tuple(vs))


def boost_basis(basis: SpinorBasis, q: FourMomentum) -> SpinorBasis:
    """Boost every spinor of a rest basis to momentum q: w(q) = B(phi) w(0)."""
    if basis.mass is None:
        raise ValueError("basis must carry a mass")
    if abs(basis.mass - q.m) > 1e-12 * max(1.0, q.m):
        raise ValueError(f"basis mass {basis.mass} does not match momentum mass {q.m}")
    B = boost_matrix(rep_generators(basis.j), rapidity_from_momentum(q))
    return SpinorBasis(
        j=basis.j,
        mass=basis.mass,
        u=tuple(B @ w for w in basis.u),
        v=tuple(B @ w for w in basis.v),
    )


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
