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

from .kinematics import FourMomentum, _boost_at, check_mass
from .reps import HalfInt, pauli_matrices, rep_generators

__all__ = [
    "GammaSet",
    "gamma_matrices",
    "dirac_operator",
    "SpinorBasis",
    "rest_spinors",
    "boost_basis",
    "boosted_spinors",
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

    Every spinor has norm sqrt(2m); the full set of 2(2j+1) spinors is
    linearly independent. The functions that read the mass judge it by
    check_mass. A stack of bases has a mass array of its stack shape S and
    spinors of shape S + (dim,).
    """

    j: HalfInt
    mass: float | np.ndarray
    u: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]

    @property
    def spinors(self) -> tuple[np.ndarray, ...]:
        return self.u + self.v

    def stack(self) -> np.ndarray:
        """Matrix with the u then v spinors as columns, S + (dim, dim) for a stack."""
        return np.stack(self.spinors, axis=-1)


def _basis_at_mass(j: HalfInt, W: np.ndarray, n_u: int, mass) -> SpinorBasis:
    """The basis whose spinors are the rows of W, the first n_u of them u
    spinors, each scaled by sqrt(mass): rows of norm sqrt 2 give spinor
    norms sqrt(2m). An array of masses gives the stack of bases of its
    shape."""
    mass = check_mass(mass)
    W = _scaled_rows(W, mass)
    return SpinorBasis(j=j, mass=mass, u=tuple(W[:n_u]), v=tuple(W[n_u:]))


def _scaled_rows(W: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The rows of W times sqrt(mass), each a stack of the mass's shape."""
    return np.sqrt(mass)[..., None] * W.reshape(W.shape[:1] + (1,) * mass.ndim + W.shape[1:])


def rest_spinors(j, mass: float | np.ndarray) -> SpinorBasis:
    """Rest-frame parity eigenbasis: u_s(0) = c(theta_s, theta_s) with eta
    eigenvalue +1 and v_s(0) = c(theta_s, -theta_s) with eigenvalue -1.

    theta_s runs over the J_z eigenbasis; c = sqrt(mass) gives norm sqrt(2m).
    Any rest spinor (theta, lambda) splits as the half-sum of a u and a v
    spinor. An array of masses gives the stack of bases of its shape.
    """
    j = HalfInt.coerce(j)
    return _basis_at_mass(j, _unit_rest_rows(j), j.block_dim, mass)


@cache
def _unit_rest_rows(j: HalfInt) -> np.ndarray:
    """The spinors of rest_spinors(j, 1.0) as rows, u then v; built once per
    spin, read-only."""
    eye = np.eye(j.block_dim, dtype=complex)
    W = np.block([[eye, eye], [eye, -eye]])
    W.flags.writeable = False
    return W


def boost_basis(basis: SpinorBasis, q: FourMomentum) -> SpinorBasis:
    """Boost every spinor of a rest basis to momentum q: w(q) = B(phi) w(0).
    A stack of momenta takes the stack of rest bases with the same masses.
    B(phi) is the one memoised on q. The basis mass must match q.m, which
    FourMomentum judged, within 1e-12 q.m, a relative bound that gives one
    verdict at every mass scale: a nan (or a None, read as nan) fails `<=`."""
    if not (np.abs(np.asarray(basis.mass, dtype=float) - q.m) <= 1e-12 * q.m).all():
        raise ValueError(f"basis mass {basis.mass} does not match momentum mass {q.m}")
    return _boosted(basis.j, np.array(basis.spinors), len(basis.u), basis.mass, q)


def boosted_spinors(j, q: FourMomentum) -> SpinorBasis:
    """u_s(q) = B(phi) u_s(0), v_s(q) = B(phi) v_s(0); each is a +-1 eigenvector
    of the parity operator at q. boost_basis(rest_spinors(j, q.m), q) bit for
    bit, with q.m as FourMomentum judged it."""
    j = HalfInt.coerce(j)
    return _boosted(j, _scaled_rows(_unit_rest_rows(j), q.m), j.block_dim, q.m, q)


def _boosted(j: HalfInt, W: np.ndarray, n_u: int, mass, q: FourMomentum) -> SpinorBasis:
    """The basis B(phi(q)) w_k of the rows w_k of W, the first n_u of them u
    spinors: every spinor in one product, for all momenta of a stack."""
    W = (_boost_at(rep_generators(j), q) @ W[..., None])[..., 0]
    return SpinorBasis(j=j, mass=mass, u=tuple(W[:n_u]), v=tuple(W[n_u:]))
