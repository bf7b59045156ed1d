"""Momentum/rapidity bookkeeping, boost evaluation, the momentum-dependent parity
operator, and the fully-kinematic-operator checker.

A family A(p) is evaluated as B(phi) A(0) B(phi)^-1 with B = exp(i K.phi); for
anti-linear families the rightmost factor becomes conj(B)^-1 because the
conjugation passes through B^-1's argument. No matrix is inverted: eta
anti-commutes with K and commutes with J, so every D = exp(i K.phi) or
exp(i J.theta) has D^-1 = eta D^dagger eta (eta B eta for a boost, which is
Hermitian, and D^dagger for a rotation, which is unitary).

The functions here that take a momentum also take a MomentumBatch and then
evaluate all of its momenta in one stacked call: matrices come back as
(N, n, n) stacks and residuals as (N,) arrays. A single FourMomentum is the
same computation on a stack with no leading axis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import anticommutator, expm_hermitian, expm_i_hermitian, stack_norm
from .reps import RAPIDITY_MAX, LorentzTransform, RepGenerators, vector_boost, vector_rotation

__all__ = [
    "check_mass",
    "check_masses",
    "FourMomentum",
    "MomentumBatch",
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
    "random_transform_pairs",
]


def check_mass(m) -> None:
    """The library's one mass rule: a real scalar, positive and finite (a rest
    frame exists)."""
    # math.isfinite gives np.isfinite's answer on a float at a fraction of the
    # cost; other types (ints, 0-d arrays, ...) keep numpy's rule
    if isinstance(m, float):
        ok = math.isfinite(m) and m > 0.0
    else:
        if np.ndim(m) != 0 or np.iscomplexobj(m):
            raise ValueError(f"mass must be a real scalar, got {m!r}")
        ok = np.isfinite(m) and m > 0.0
    if not ok:
        raise ValueError(f"mass must be positive and finite, got {m}")


def check_masses(m) -> np.ndarray:
    """The mass rule for every entry of a 1-d array of masses; returns them as
    a float array."""
    if np.iscomplexobj(m) or np.ndim(m) != 1:
        raise ValueError(f"masses must be a 1-d real array, got shape {np.shape(m)}")
    m = np.asarray(m, dtype=float)
    if not (np.isfinite(m).all() and (m > 0.0).all()):
        raise ValueError("masses must be positive and finite")
    return m


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


@dataclass(frozen=True, eq=False)
class MomentumBatch:
    """N on-shell momenta as read-only arrays: masses m (N,) and 3-momenta
    p (N, 3), validated once for the whole batch by the mass rule.

    len(), iteration and integer indexing give FourMomentum values, so a batch
    reads like the list of its momenta; the library functions that take a
    momentum evaluate a batch in one stacked call.
    """

    m: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        m = np.array(check_masses(self.m))
        p = np.array(self.p, dtype=float)
        if p.shape != (m.size, 3):
            raise ValueError(f"expected {m.size} 3-momenta, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("momentum components must be finite")
        m.flags.writeable = p.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)

    @cached_property
    def _momenta(self) -> tuple[FourMomentum, ...]:
        return tuple(FourMomentum(m, p) for m, p in zip(self.m.tolist(), self.p.tolist()))

    def __len__(self) -> int:
        return self.m.size

    def __iter__(self):
        return iter(self._momenta)

    def __getitem__(self, k) -> FourMomentum:
        return self._momenta[k]

    @property
    def p_vec(self) -> np.ndarray:
        return self.p

    @property
    def E(self) -> np.ndarray:
        return np.sqrt(self.m**2 + np.vecdot(self.p, self.p))

    @property
    def four_vector(self) -> np.ndarray:
        """(N, 4) rows (E, p1, p2, p3) with upper index."""
        return np.concatenate([self.E[:, None], self.p], axis=1)

    @property
    def lower(self) -> np.ndarray:
        """(N, 4) rows p_mu = (E, -p1, -p2, -p3) in the (+,-,-,-) metric."""
        return np.concatenate([self.E[:, None], -self.p], axis=1)

    def transform(self, L: LorentzTransform) -> "MomentumBatch":
        """Apply one Lorentz transform, or a stack of N (one per momentum);
        raises if any image is off-shell by more than 1e-9 relative to its
        energy."""
        v = L.apply(self.four_vector)
        out = MomentumBatch(self.m, v[:, 1:])
        if (np.abs(out.E - v[:, 0]) > 1e-9 * np.maximum(1.0, np.abs(v[:, 0]))).any():
            raise ValueError("transformed momentum is off-shell; inconsistent inputs")
        return out


_FLOAT_TINY = sys.float_info.min


def rapidity_from_momentum(q: FourMomentum | MomentumBatch) -> np.ndarray:
    """Rapidity vector phi = asinh(|p|/m) p-hat, so cosh|phi| = E/m; (N, 3)
    for a batch."""
    p = q.p_vec
    pn = np.sqrt(np.vecdot(p, p, keepdims=True))
    phi = np.arcsinh(pn / np.asarray(q.m)[..., None])
    if phi.max(initial=0.0) > RAPIDITY_MAX:
        raise ValueError(f"rapidity {phi.max():.3f} exceeds the overflow cap {RAPIDITY_MAX}")
    # p-hat, and 0 at rest: a non-zero |p| is at least 1e-162, far above the
    # smallest normal float, and phi = 0 wherever |p| underflows to 0
    return phi * (p / np.maximum(pn, _FLOAT_TINY))


def boost_matrix(rep: RepGenerators, phi) -> np.ndarray:
    """exp(i K.phi) for a rapidity phi, or a stack (..., 3) of them. i K.phi is
    Hermitian, so this is computed by eigendecomposition and is Hermitian
    positive definite; its inverse is eta B eta = exp(-i K.phi)."""
    phi = np.asarray(phi, dtype=float)
    # one reduction tests finiteness and the cap: a nan or inf fails `<=`
    if not np.sqrt(np.vecdot(phi, phi).max(initial=0.0)) <= RAPIDITY_MAX:
        if not np.isfinite(phi).all():
            raise ValueError("rapidity must be finite")
        raise ValueError(f"rapidity norm exceeds the overflow cap {RAPIDITY_MAX}")
    return expm_hermitian(rep.iK_dot(phi))


def rotation_matrix(rep: RepGenerators, theta) -> np.ndarray:
    """exp(i J.theta), unitary (J.theta is Hermitian); a stack (..., 3) of
    rotation vectors gives a stack of matrices."""
    return expm_i_hermitian(rep.J_dot(theta))


def parity_operator(rep: RepGenerators, q: FourMomentum | MomentumBatch) -> np.ndarray:
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
        """D M D^-1, or D M conj(D)^-1 for an anti-linear family.

        D represents a Lorentz transformation (a boost, a rotation, or a stack
        of them), so D^-1 = eta D^dagger eta and nothing is inverted.
        """
        eta = self.rep.eta
        Dt = np.swapaxes(D, -1, -2)
        return D @ (M @ eta) @ (Dt if self.antilinear else np.conj(Dt)) @ eta

    def matrix_at(self, q: FourMomentum | MomentumBatch) -> np.ndarray:
        return self.conjugated(boost_matrix(self.rep, rapidity_from_momentum(q)), self.rest_matrix)

    def squared_at(self, q: FourMomentum | MomentumBatch) -> np.ndarray:
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
    q: FourMomentum | MomentumBatch,
    L: LorentzTransform,
    D: np.ndarray,
) -> float | np.ndarray:
    """|| A(Lq) - D A(q) D^-1 ||_F / ||A(q)||_F for a matched pair (L, D).

    D must be the spinor representative of L: exp(i K.phi) for a pure boost by
    phi, exp(i J.theta) for the rotation by -theta (conjugation by exp(iJ.theta)
    rotates momenta the opposite way). For a batch of N momenta, L and D are
    one pair or stacks of N pairs, and the N residuals come back as an array.
    """
    q2 = q.transform(L)
    A1 = fam.matrix_at(q)
    A2 = fam.matrix_at(q2)
    r = stack_norm(A2 - fam.conjugated(D, A1), 2) / stack_norm(A1, 2)
    return float(r) if r.ndim == 0 else r


def sample_momenta(
    rng: np.random.Generator,
    n: int,
    mass_range: tuple[float, float] = (0.1, 10.0),
    momentum_factor: float = 5.0,
) -> MomentumBatch:
    """Reproducible random on-shell momenta: m log-uniform in mass_range,
    |p| uniform in [0, momentum_factor*m], direction uniform on the sphere."""
    m = np.empty(n)
    p = np.empty((n, 3))
    lo, hi = np.log(mass_range[0]), np.log(mass_range[1])
    # one momentum at a time: rng.normal draws a variable amount of the
    # stream, so the per-momentum draw order cannot be vectorised
    for k in range(n):
        m[k] = np.exp(rng.uniform(lo, hi))
        d = rng.normal(size=3)
        d /= math.sqrt(d.dot(d))  # np.linalg.norm(d), bit for bit
        p[k] = rng.uniform(0.0, momentum_factor * m[k]) * d
    return MomentumBatch(m, p)


# largest rapidity of the random boosts drawn for the covariance checks
_PAIR_RAPIDITY_MAX = 1.5


def _random_vector(rng: np.random.Generator, max_length: float) -> np.ndarray:
    """A direction uniform on the sphere times a length uniform in [0, max_length)."""
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    return rng.uniform(0.0, max_length) * d


def _boost_pair(rep: RepGenerators, phi) -> tuple[LorentzTransform, np.ndarray]:
    return vector_boost(phi), boost_matrix(rep, phi)


def _rotation_pair(rep: RepGenerators, theta: np.ndarray) -> tuple[LorentzTransform, np.ndarray]:
    # exp(iJ.theta) A(p) exp(-iJ.theta) = A(R(-theta)p): the vector transform
    # paired with D = exp(i J.theta) is the rotation by -theta
    return vector_rotation(-theta), rotation_matrix(rep, theta)


def random_boost_pair(
    rep: RepGenerators, rng: np.random.Generator, max_rapidity: float = _PAIR_RAPIDITY_MAX
) -> tuple[LorentzTransform, np.ndarray]:
    """A random pure boost and its spinor representative exp(i K.phi)."""
    return _boost_pair(rep, _random_vector(rng, max_rapidity))


def random_rotation_pair(
    rep: RepGenerators, rng: np.random.Generator
) -> tuple[LorentzTransform, np.ndarray]:
    """A random rotation and its matched spinor representative: D =
    exp(i J.theta) with the vector rotation by -theta."""
    return _rotation_pair(rep, _random_vector(rng, np.pi))


def random_transform_pairs(
    rep: RepGenerators, rng: np.random.Generator, n: int
) -> tuple[tuple[LorentzTransform, np.ndarray], tuple[LorentzTransform, np.ndarray]]:
    """n random boost pairs and n random rotation pairs as two stacked pairs,
    drawn from rng as n alternating random_boost_pair / random_rotation_pair
    calls would draw them, then evaluated in one stacked call each."""
    draws = np.empty((2, n, 3))
    for k in range(n):
        draws[0, k] = _random_vector(rng, _PAIR_RAPIDITY_MAX)
        draws[1, k] = _random_vector(rng, np.pi)
    return _boost_pair(rep, draws[0]), _rotation_pair(rep, draws[1])


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
    momenta = sample_momenta(rng, samples)
    boosts, rotations = random_transform_pairs(fam.rep, rng, samples)
    sq_worst = float(np.max(stack_norm(fam.squared_at(momenta) - np.eye(fam.rep.dim), 2)))
    cov_worst = float(
        max(np.max(covariance_residual(fam, momenta, *pair)) for pair in (boosts, rotations))
    )
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
