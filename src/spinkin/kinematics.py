"""Momentum/rapidity bookkeeping, boost evaluation, the momentum-dependent parity
operator, and the fully-kinematic-operator checker.

A family A(p) is evaluated as B(phi) A(0) B(phi)^-1 with B = exp(i K.phi); for
anti-linear families the rightmost factor becomes conj(B)^-1 because the
conjugation passes through B^-1's argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import anticommutator, expm_hermitian, expm_i_hermitian
from .reps import RAPIDITY_MAX, LorentzTransform, RepGenerators, vector_boost, vector_rotation

__all__ = [
    "check_mass",
    "FourMomentum",
    "rapidity_from_momentum",
    "boost_matrix",
    "rotation_matrix",
    "parity_operator",
    "KinematicOperatorFamily",
    "parity_family",
    "scaled_swap_family",
    "covariance_residual",
    "is_fully_kinematic",
    "KinematicCheckReport",
    "sample_momenta",
    "random_boost_pair",
    "random_rotation_pair",
]


def check_mass(m) -> None:
    """The library's one mass rule: positive and finite (a rest frame exists)."""
    # math.isfinite gives np.isfinite's answer on a float at a fraction of the
    # cost; other types (ints, 0-d arrays, ...) keep numpy's rule
    if not ((math.isfinite(m) if isinstance(m, float) else np.isfinite(m)) and m > 0.0):
        raise ValueError(f"mass must be positive and finite, got {m}")


@dataclass(frozen=True)
class FourMomentum:
    """On-shell momentum of a massive particle: mass m > 0 plus 3-momentum p.

    The energy is derived, E = sqrt(m^2 + |p|^2), so the mass shell holds by
    construction (natural units).
    """

    m: float
    p: tuple[float, float, float]

    def __post_init__(self):
        check_mass(self.m)
        p = tuple(np.asarray(self.p, dtype=float).reshape(3).tolist())
        if not all(map(math.isfinite, p)):
            raise ValueError("momentum components must be finite")
        object.__setattr__(self, "p", p)

    @property
    def p_vec(self) -> np.ndarray:
        return np.asarray(self.p, dtype=float)

    @property
    def E(self) -> float:
        return float(np.sqrt(self.m**2 + self.p_vec @ self.p_vec))

    @property
    def four_vector(self) -> np.ndarray:
        """(E, p1, p2, p3) with upper index."""
        return np.concatenate([[self.E], self.p_vec])

    @property
    def lower(self) -> np.ndarray:
        """p_mu = (E, -p1, -p2, -p3) in the (+,-,-,-) metric."""
        return np.concatenate([[self.E], -self.p_vec])

    def transform(self, L: LorentzTransform) -> "FourMomentum":
        """Apply a Lorentz transform; raises if the image is off-shell by more
        than 1e-9 relative to its energy."""
        v = L.apply(self.four_vector)
        out = FourMomentum(self.m, tuple(v[1:]))
        if abs(out.E - v[0]) > 1e-9 * max(1.0, abs(v[0])):
            raise ValueError("transformed momentum is off-shell; inconsistent inputs")
        return out


def rapidity_from_momentum(q: FourMomentum) -> np.ndarray:
    """Rapidity vector phi = asinh(|p|/m) p-hat, so cosh|phi| = E/m."""
    p = q.p_vec
    pn = float(np.linalg.norm(p))
    if pn == 0.0:
        return np.zeros(3)
    phi = float(np.arcsinh(pn / q.m))
    if phi > RAPIDITY_MAX:
        raise ValueError(f"rapidity {phi:.3f} exceeds the overflow cap {RAPIDITY_MAX}")
    return phi * (p / pn)


def boost_matrix(rep: RepGenerators, phi) -> np.ndarray:
    """exp(i K.phi). i K.phi is Hermitian, so this is computed by
    eigendecomposition and is Hermitian positive definite."""
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("rapidity must be finite")
    if np.linalg.norm(phi) > RAPIDITY_MAX:
        raise ValueError(f"rapidity norm exceeds the overflow cap {RAPIDITY_MAX}")
    return expm_hermitian(1j * rep.K_dot(phi))


def rotation_matrix(rep: RepGenerators, theta) -> np.ndarray:
    """exp(i J.theta), unitary (J.theta is Hermitian)."""
    return expm_i_hermitian(rep.J_dot(np.asarray(theta, dtype=float)))


def parity_operator(rep: RepGenerators, q: FourMomentum) -> np.ndarray:
    """P(q) = exp(2i K.phi) eta = B(phi) eta B(phi)^-1; squares to the identity
    with eigenvalues +-1, each of multiplicity 2j+1."""
    phi = rapidity_from_momentum(q)
    return boost_matrix(rep, 2.0 * phi) @ rep.eta


@dataclass(frozen=True)
class KinematicOperatorFamily:
    """Operator family determined by its rest-frame matrix A(0).

    Linear: A(q) = B A(0) B^-1.  Anti-linear (A(0) = M o K): the matrix part
    evaluates as B M conj(B)^-1 and A(q)^2 means M(q) conj(M(q)).
    """

    rep: RepGenerators
    rest_matrix: np.ndarray
    antilinear: bool = False

    def conjugated(self, D: np.ndarray, M: np.ndarray) -> np.ndarray:
        """D M D^-1, or D M conj(D)^-1 for an anti-linear family."""
        return D @ M @ np.linalg.inv(np.conj(D) if self.antilinear else D)

    def matrix_at(self, q: FourMomentum) -> np.ndarray:
        return self.conjugated(boost_matrix(self.rep, rapidity_from_momentum(q)), self.rest_matrix)

    def squared_at(self, q: FourMomentum) -> np.ndarray:
        M = self.matrix_at(q)
        return M @ np.conj(M) if self.antilinear else M @ M

    def anticommutator_residual(self) -> float:
        """max_a ||{A(0), K_a}|| in the convention appropriate to linearity.

        For anti-linear A(0) = M o K the anticommutator with the boost
        generators i*K_a picks up a sign through the conjugation, so the
        matrix condition is K_a M - M conj(K_a) = 0.
        """
        M = self.rest_matrix
        worst = 0.0
        for Ka in self.rep.K:
            if self.antilinear:
                r = np.linalg.norm(Ka @ M - M @ np.conj(Ka))
            else:
                r = np.linalg.norm(anticommutator(M, Ka))
            worst = max(worst, float(r))
        return worst


def parity_family(rep: RepGenerators) -> KinematicOperatorFamily:
    """The parity family: A(0) = eta."""
    return KinematicOperatorFamily(rep=rep, rest_matrix=rep.eta.copy())


def scaled_swap_family(rep: RepGenerators, a: complex) -> KinematicOperatorFamily:
    """Linear family A(0) = offdiag(a I, a^-1 I); fully kinematic for any a != 0."""
    if a == 0:
        raise ValueError("a must be non-zero")
    d = rep.j.block_dim
    Z = np.zeros((d, d), dtype=complex)
    I = np.eye(d, dtype=complex)
    rest = np.block([[Z, a * I], [(1.0 / a) * I, Z]])
    return KinematicOperatorFamily(rep=rep, rest_matrix=rest)


def covariance_residual(
    fam: KinematicOperatorFamily,
    q: FourMomentum,
    L: LorentzTransform,
    D: np.ndarray,
) -> float:
    """|| A(Lq) - D A(q) D^-1 ||_F / ||A(q)||_F for a matched pair (L, D).

    D must be the spinor representative of L: exp(i K.phi) for a pure boost by
    phi, exp(i J.theta) for the rotation by -theta (conjugation by exp(iJ.theta)
    rotates momenta the opposite way).
    """
    q2 = q.transform(L)
    A1 = fam.matrix_at(q)
    A2 = fam.matrix_at(q2)
    return float(np.linalg.norm(A2 - fam.conjugated(D, A1)) / np.linalg.norm(A1))


def sample_momenta(
    rng: np.random.Generator,
    n: int,
    mass_range: tuple[float, float] = (0.1, 10.0),
    momentum_factor: float = 5.0,
) -> list[FourMomentum]:
    """Reproducible random on-shell momenta: m log-uniform in mass_range,
    |p| uniform in [0, momentum_factor*m], direction uniform on the sphere."""
    out = []
    lo, hi = np.log(mass_range[0]), np.log(mass_range[1])
    for _ in range(n):
        m = float(np.exp(rng.uniform(lo, hi)))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        pn = rng.uniform(0.0, momentum_factor * m)
        out.append(FourMomentum(m, tuple(pn * d)))
    return out


def random_boost_pair(
    rep: RepGenerators, rng: np.random.Generator, max_rapidity: float = 1.5
) -> tuple[LorentzTransform, np.ndarray]:
    """A random pure boost and its spinor representative exp(i K.phi)."""
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    phi = rng.uniform(0.0, max_rapidity) * d
    return vector_boost(phi), boost_matrix(rep, phi)


def random_rotation_pair(
    rep: RepGenerators, rng: np.random.Generator
) -> tuple[LorentzTransform, np.ndarray]:
    """A random rotation and its matched spinor representative.

    exp(iJ.theta) A(p) exp(-iJ.theta) = A(R(-theta)p), so the vector transform
    paired with D = exp(i J.theta) is the rotation by -theta.
    """
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    theta = rng.uniform(0.0, np.pi) * d
    return vector_rotation(-theta), rotation_matrix(rep, theta)


@dataclass(frozen=True)
class KinematicCheckReport:
    """Outcome of the three fully-kinematic conditions over a random sweep."""

    squares_to_identity: bool
    anticommutes: bool
    covariant: bool
    max_residuals: dict[str, float]
    seed: int
    samples: int
    tol: float

    @property
    def fully_kinematic(self) -> bool:
        return self.squares_to_identity and self.anticommutes and self.covariant


def is_fully_kinematic(
    fam: KinematicOperatorFamily,
    samples: int = 50,
    tol: float = 1e-8,
    seed: int = 0,
) -> KinematicCheckReport:
    """Check A(p)^2 = I, {A(0), K} = 0 and covariance over random momenta and
    random pure boosts/rotations; reports the max residual of each condition."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    rng = np.random.default_rng(seed)
    dim = fam.rep.dim
    I = np.eye(dim, dtype=complex)

    sq_worst = 0.0
    cov_worst = 0.0
    momenta = sample_momenta(rng, samples)
    for q in momenta:
        sq_worst = max(sq_worst, float(np.linalg.norm(fam.squared_at(q) - I)))
        L, D = random_boost_pair(fam.rep, rng)
        cov_worst = max(cov_worst, covariance_residual(fam, q, L, D))
        L, D = random_rotation_pair(fam.rep, rng)
        cov_worst = max(cov_worst, covariance_residual(fam, q, L, D))
    anti_worst = fam.anticommutator_residual()

    residuals = {
        "square": sq_worst,
        "anticommutator": anti_worst,
        "covariance": cov_worst,
    }
    return KinematicCheckReport(
        squares_to_identity=sq_worst <= tol,
        anticommutes=anti_worst <= tol,
        covariant=cov_worst <= tol,
        max_residuals=residuals,
        seed=seed,
        samples=samples,
        tol=tol,
    )
