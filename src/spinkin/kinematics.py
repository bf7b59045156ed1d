"""Momentum/rapidity bookkeeping, boost evaluation, the momentum-dependent parity
operator, and the fully-kinematic-operator checker.

Every Lorentz representative is the lift of a 2x2 SL(2,C) matrix through
its spin-j image Sym^{2j} (reps.symmetric_power, RepGenerators.lift): the
boost exp(i K.phi) lifts A = exp(sigma.phi/2) and A^-1 = adj A, the
rotation exp(i J.theta) lifts R = exp(i sigma.theta/2), and the parity
operator exp(2i K.phi) eta lifts the polynomial (E + sigma.p)/m with no
exponential at all; the family rest matrices lift scaled blocks through one
assembler, _block_family. Only the 2x2 exponentials go through linalg.

A family A(p) is evaluated as B(phi) A(0) B(phi)^-1 with B = exp(i K.phi),
except the parity family, which reads parity_operator's P(q) itself; for
anti-linear families the rightmost factor becomes conj(B)^-1 because the
conjugation passes through B^-1's argument. No matrix is inverted: eta
anti-commutes with K and commutes with J, so every D = exp(i K.phi) or
exp(i J.theta) has D^-1 = eta D^dagger eta (eta B eta for a boost, which is
Hermitian, and D^dagger for a rotation, which is unitary).

A FourMomentum holds a stack of momenta of any shape S, and the functions here
evaluate all of them in one stacked call: matrices come back as S + (n, n)
stacks and residuals as arrays of shape S. A single momentum is the same
computation on a stack with no leading axis.

Two more stack axes ride on top of the momentum axis, and both lead it:

- a family stack: a KinematicOperatorFamily whose rest matrix is a stack
  (k, n, n) is k families evaluated together, so k families at N momenta
  give (k, N, n, n);
- a pair stack: covariance_residual takes k stacks of N Lorentz pairs,
  shapes (k, N, 4, 4) and (k, N, n, n), evaluates A(q) once and all k N
  images A(Lq) in one call, and returns (k, N) residuals (after the family
  axes).

Each entry of a stacked result equals its single call bit for bit.

A FourMomentum memoises the operators evaluated at it: parity_operator's
P(q), which the parity family serves as its A(q), and the boost B(phi(q))
that every other KinematicOperatorFamily.matrix_at, boost_basis and the
decomposition share are built once per momentum object
and representation (spin and tensor flag), stored read-only on the object
only after every refusal has passed, and freed with it. A view q[k] and an
image q.transform(L) are new objects and start with an empty memo; an object
without one (not a FourMomentum) is computed on every call and not cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _FLOAT_TINY, _ONE_SIGMA, _scalar_or_stack, anticommutator, expm_hermitian, expm_i_hermitian, stack_norm
from .reps import (
    RAPIDITY_MAX,
    LorentzTransform,
    RepGenerators,
    adjugate_power,
    pauli_matrices,
    symmetric_power,
    vector_boost,
    vector_rotation,
)

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
    "stack_pairs",
    "is_fully_kinematic",
    "sample_momenta",
    "random_transform_pairs",
]


def check_mass(m) -> np.ndarray:
    """The library's one mass rule, for a single mass or an array of them:
    real, positive and finite (a rest frame exists); returns the masses as
    a float array."""
    if np.iscomplexobj(m):
        raise ValueError(f"mass must be real, got {m!r}")
    m = np.asarray(m, dtype=float)
    # nan fails both comparisons
    ok = (m > 0.0) & (m < np.inf)
    if not ok.all():
        raise ValueError(f"mass must be positive and finite, got {m[~ok][0]}")
    return m


@dataclass(frozen=True, eq=False)
class FourMomentum:
    """On-shell momenta of massive particles as read-only arrays: masses m of
    any stack shape S and 3-momenta p of shape S + (3,), validated once by
    the mass rule. S = () is one momentum; a stack of N is what
    sample_momenta returns, and transform keeps the leading axes of a pair
    stack.

    The energy is derived, E = m sqrt(1 + |p/m|^2), so the mass shell holds by
    construction (natural units). len(), iteration and q[k] run over the
    leading axis, so a stack reads like the list of its momenta.

    Each object carries a private memo of the read-only operators evaluated
    at it (see the module docstring); views and transforms start empty.
    """

    m: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        m = np.array(check_mass(self.m))
        p = np.array(self.p, dtype=float)
        if p.shape != m.shape + (3,):
            raise ValueError(f"expected 3-momenta of shape {m.shape + (3,)} for the masses, got {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("momentum components must be finite")
        m.flags.writeable = p.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_derived", {})

    def __len__(self) -> int:
        return len(self.m)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, k) -> "FourMomentum":
        # views of a validated stack, which are read-only as it is: no
        # second validation
        q = object.__new__(FourMomentum)
        object.__setattr__(q, "m", self.m[k, ...])
        object.__setattr__(q, "p", self.p[k, ...])
        object.__setattr__(q, "_derived", {})
        return q

    @property
    def E(self) -> np.ndarray:
        # as parity_operator forms E/m: m^2 and |p|^2 would leave the float
        # range at a mass scale far from 1; inf only past |p|/m ~ 1e154
        with np.errstate(over="ignore"):
            u = self.p / self.m[..., None]
            return self.m * np.sqrt(1.0 + np.vecdot(u, u))

    @property
    def four_vector(self) -> np.ndarray:
        """(E, p1, p2, p3) with upper index, on a trailing axis."""
        return np.concatenate([self.E[..., None], self.p], axis=-1)

    @property
    def lower(self) -> np.ndarray:
        """p_mu = (E, -p1, -p2, -p3) in the (+,-,-,-) metric, on a trailing axis."""
        return np.concatenate([self.E[..., None], -self.p], axis=-1)

    def transform(self, L: LorentzTransform) -> "FourMomentum":
        """Apply one Lorentz transform or a stack of them, broadcast against
        the momenta: a stack (k, N) of transforms maps N momenta to (k, N)
        images. Raises if any image is off-shell by more than 1e-9 relative
        to its energy, or if an energy overflows (|p|/m past about 1e154)."""
        v = self.four_vector
        if not np.isfinite(v[..., 0]).all():
            raise ValueError("the energy overflows: |p|/m is past the float range")
        v = L.apply(v)
        out = FourMomentum(np.broadcast_to(self.m, v.shape[:-1]), v[..., 1:])
        if (np.abs(out.E - v[..., 0]) > 1e-9 * np.maximum(1.0, np.abs(v[..., 0]))).any():
            raise ValueError("transformed momentum is off-shell; inconsistent inputs")
        return out


def _recall(q, kind: str, j, tensor: bool) -> np.ndarray | None:
    """The operator of this kind memoised on q for the spin-j representation
    (the tensor one if tensor), or None: not evaluated yet, or q carries no
    memo."""
    memo = getattr(q, "_derived", None)
    return None if memo is None else memo.get((kind, j, tensor))


def _remember(q, kind: str, rep: RepGenerators, X: np.ndarray) -> np.ndarray:
    """X made read-only and, where q carries a memo, memoised on it for rep."""
    X.flags.writeable = False
    memo = getattr(q, "_derived", None)
    if memo is not None:
        memo[(kind, rep.j, rep.tensor)] = X
    return X


def rapidity_from_momentum(q: FourMomentum) -> np.ndarray:
    """Rapidity vector phi = asinh(|p/m|) p-hat, so cosh|phi| = E/m, on a
    trailing axis of 3 after the stack axes of q.

    u = p/m is formed before any square, as parity_operator forms it, so
    |u|^2 stays in range at any common scale of p and m."""
    # p/m or |p/m| may overflow to inf, which the cap below refuses
    with np.errstate(over="ignore"):
        u = q.p / q.m[..., None]
        un = np.sqrt(np.vecdot(u, u, keepdims=True))
        phi = np.arcsinh(un)
    if phi.max(initial=0.0) > RAPIDITY_MAX:
        raise ValueError(f"rapidity {phi.max():.3f} exceeds the overflow cap {RAPIDITY_MAX}")
    # p-hat, and 0 at rest
    return phi * (u / np.maximum(un, _FLOAT_TINY))


# sigma/2 (for the 2x2 generators of boosts and rotations), each 2x2 matrix
# flattened to a row; linalg's (1, sigma) rows give E + sigma.p
_HALF_SIGMA = np.array(pauli_matrices()).reshape(3, 4) / 2.0
_HALF_SIGMA.flags.writeable = False


def _pauli_dot(v: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_a v[..., a] table[a] as (..., 2, 2) complex matrices. Every entry
    is a sum of at most two non-zero terms, so a stack rounds as its rows."""
    if v.shape[-1:] != (len(table),):
        raise ValueError(f"expected {len(table)}-vectors, got shape {v.shape}")
    return (v @ table).reshape(v.shape[:-1] + (2, 2))


def _checked_rapidity(phi) -> np.ndarray:
    """phi as a float array, refused unless every rapidity is finite and
    within the overflow cap."""
    phi = np.asarray(phi, dtype=float)
    # one reduction tests finiteness and the cap: a nan or inf fails `<=`
    if not np.sqrt(np.vecdot(phi, phi).max(initial=0.0)) <= RAPIDITY_MAX:
        if not np.isfinite(phi).all():
            raise ValueError("rapidity must be finite")
        raise ValueError(f"rapidity norm exceeds the overflow cap {RAPIDITY_MAX}")
    return phi


def boost_matrix(rep: RepGenerators, phi) -> np.ndarray:
    """exp(i K.phi) for a rapidity phi, or a stack (..., 3) of them: the lift
    of A = exp(sigma.phi/2) and of A^-1 = adj A, as Sym^{2j}(A) on (j,0)
    and Sym^{2j}(A^-1) on (0,j). It is Hermitian positive definite, and its
    inverse is eta B eta = exp(-i K.phi)."""
    S = symmetric_power(expm_hermitian(_pauli_dot(_checked_rapidity(phi), _HALF_SIGMA)), rep.j)
    return rep.lift(S, adjugate_power(S))


def _boost_at(rep: RepGenerators, q: FourMomentum) -> np.ndarray:
    """B(phi(q)) = boost_matrix(rep, rapidity_from_momentum(q)), read-only and
    memoised on q: the one boost per momentum of every caller."""
    B = _recall(q, "boost", rep.j, rep.tensor)
    if B is None:
        B = _remember(q, "boost", rep, boost_matrix(rep, rapidity_from_momentum(q)))
    return B


def rotation_matrix(rep: RepGenerators, theta) -> np.ndarray:
    """exp(i J.theta), unitary: the lift of R = exp(i sigma.theta/2) as
    Sym^{2j}(R) on both factors; a stack (..., 3) of rotation vectors gives
    a stack of matrices."""
    S = symmetric_power(expm_i_hermitian(_pauli_dot(np.asarray(theta, dtype=float), _HALF_SIGMA)), rep.j)
    return rep.lift(S, S)


# cosh of the largest |phi| parity_operator accepts: B(2 phi) is capped at
# 2|phi| <= RAPIDITY_MAX
_PARITY_COSH_CAP = math.cosh(RAPIDITY_MAX / 2.0)


def parity_operator(rep: RepGenerators, q: FourMomentum) -> np.ndarray:
    """P(q) = exp(2i K.phi) eta = B(phi) eta B(phi)^-1; squares to the identity
    with eigenvalues +-1, each of multiplicity 2j+1.

    exp(sigma.phi) = (E + sigma.p)/m, so P(q) is a polynomial in p/m with no
    exponential: offdiag(Sym^{2j}((E + sigma.p)/m), Sym^{2j}((E - sigma.p)/m))
    on (j,0)+(0,j). It refuses the momenta boost_matrix(rep, 2 phi) refuses,
    |phi| > RAPIDITY_MAX/2, read off cosh|phi| = E/m with no rapidity formed.

    The result is read-only and memoised on q: a repeat call at the same
    FourMomentum object returns the same array.
    """
    P = _recall(q, "parity", rep.j, rep.tensor)
    if P is not None:
        return P
    # p/m or |p/m|^2 may overflow to inf, which the cap refuses
    with np.errstate(over="ignore"):
        u = q.p / q.m[..., None]
        e = np.sqrt(1.0 + np.vecdot(u, u, keepdims=True))
    # one reduction tests finiteness and the cap: a nan fails `<=`
    if not e.max(initial=1.0) <= _PARITY_COSH_CAP:
        cap, phi = RAPIDITY_MAX / 2.0, np.arccosh(e.max())
        raise ValueError(f"rapidity must be finite and within the parity overflow cap {cap}, got {phi:.3f}")
    S = symmetric_power(_pauli_dot(np.concatenate([e, u], axis=-1), _ONE_SIGMA), rep.j)
    return _remember(q, "parity", rep, rep.lift(S, adjugate_power(S), swap=True))


@dataclass(frozen=True)
class KinematicOperatorFamily:
    """Operator family determined by its rest-frame matrix A(0), or a stack of
    families given by a stack (k, n, n) of rest matrices; in a result the
    family axes lead and the momentum axes follow.

    Linear: A(q) = B A(0) B^-1.  Anti-linear (A(0) = M o K): the matrix part
    evaluates as B M conj(B)^-1 and A(q)^2 means M(q) conj(M(q)).

    A rest matrix whose trailing shape is not (rep.dim, rep.dim) is refused.
    The shape is all that is checked: at 2j = 1 the direct sum and the
    tensor product are both 4-dimensional, so the block swap of one paired
    with the generators of the other is not caught.
    """

    rep: RepGenerators
    rest_matrix: np.ndarray
    antilinear: bool = False

    def __post_init__(self):
        n = self.rep.dim
        if np.shape(self.rest_matrix)[-2:] != (n, n):
            raise ValueError(f"expected rest matrices of shape (..., {n}, {n}), got {np.shape(self.rest_matrix)}")

    def conjugated(self, D: np.ndarray, M: np.ndarray) -> np.ndarray:
        """D M D^-1, or D M conj(D)^-1 for an anti-linear family, with D and
        M broadcast against each other as stacks.

        D represents a Lorentz transformation (a boost, a rotation, or a stack
        of them), so D^-1 = eta D^dagger eta and nothing is inverted.
        """
        # eta is a permutation, so a product with it is a gather of columns.
        # The linear case forms X D^dagger as conj(conj(X) D^T) in place
        index = self.rep.eta_index
        X = D @ M[..., index]
        if not self.antilinear:
            np.conjugate(X, out=X)
        X = X @ np.swapaxes(D, -1, -2)
        if not self.antilinear:
            np.conjugate(X, out=X)
        return X[..., index]

    def _spread(self, M: np.ndarray, axes: int) -> np.ndarray:
        """M, whose leading axes are the family axes, with `axes` unit axes
        put after them: it then broadcasts against a stack of that many axes."""
        f = self.rest_matrix.ndim - 2
        return M.reshape(M.shape[:f] + (1,) * axes + M.shape[f:])

    def matrix_at(self, q: FourMomentum) -> np.ndarray:
        B = _boost_at(self.rep, q)
        return self.conjugated(B, self._spread(self.rest_matrix, B.ndim - 2))

    def squared_at(self, q: FourMomentum) -> np.ndarray:
        return _squared(self.matrix_at(q), self.antilinear)

    def anticommutator_residual(self) -> float:
        """max_a ||{A(0), K_a}|| in the convention appropriate to linearity,
        the largest over a family stack.

        For anti-linear A(0) = M o K the anticommutator with the boost
        generators i*K_a picks up a sign through the conjugation, so the
        matrix condition is K_a M - M conj(K_a) = 0.
        """
        M = self.rest_matrix
        K = np.array(self.rep.K).reshape((3,) + (1,) * (M.ndim - 2) + M.shape[-2:])
        r = K @ M - M @ np.conj(K) if self.antilinear else anticommutator(M, K)
        return float(stack_norm(r, 2).max(initial=0.0))


def _squared(M: np.ndarray, antilinear: bool) -> np.ndarray:
    """A^2 of a matrix stack: M conj(M) for the anti-linear M o K, else M M."""
    return M @ np.conj(M) if antilinear else M @ M


def _family_scales(x, name: str) -> np.ndarray:
    """x as a complex array of scales, refused unless every entry is finite
    and non-zero."""
    x = np.asarray(x, dtype=complex)
    bad = ~(np.isfinite(x) & (x != 0))
    if bad.any():
        raise ValueError(f"{name} must be finite and non-zero, got {x[bad][0]}")
    return x


def _block_family(rep: RepGenerators, a, b, block, *, swap=False, antilinear=False) -> KinematicOperatorFamily:
    """The family A(0) = rep.lift(a block, b block, swap), or A(0) o K, for
    scales a, b that broadcast (arrays give a stack of families). Refused on
    the tensor product, and where A(0) or A(0)^2 has an entry or a norm that
    is not finite: the checks would read nan or inf residuals."""
    if rep.tensor:
        raise ValueError("this family is built on (j,0)+(0,j), not on the tensor product")
    a, b = np.broadcast_arrays(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        rest = rep.lift(a[..., None, None] * block, b[..., None, None] * block, swap)
        ok = np.isfinite(stack_norm(rest, 2)) & np.isfinite(stack_norm(_squared(rest, antilinear), 2))
    if not ok.all():
        where = f" (stack index {np.argwhere(~ok)[0].tolist()})" if ok.ndim else ""
        raise ValueError(f"the rest matrix or its square overflows{where}; rescale the family")
    return KinematicOperatorFamily(rep=rep, rest_matrix=rest, antilinear=antilinear)


class _ParityFamily(KinematicOperatorFamily):
    """The family A(0) = eta, evaluated as the parity operator it is."""

    def matrix_at(self, q: FourMomentum) -> np.ndarray:
        return parity_operator(self.rep, q)


def parity_family(rep: RepGenerators) -> KinematicOperatorFamily:
    """The parity family: A(0) = eta, and A(q) = parity_operator(rep, q), the
    memoised read-only P(q) with its cap |phi| <= RAPIDITY_MAX/2; no boost
    is formed."""
    return _ParityFamily(rep=rep, rest_matrix=rep.eta.copy())


def scaled_swap_family(rep: RepGenerators, a) -> KinematicOperatorFamily:
    """Linear family A(0) = offdiag(a I, a^-1 I); fully kinematic for any a != 0.

    An array of a gives the stack of those families. Raises for an a that is
    zero or not finite or whose A(0) has a norm that overflows, and on the
    tensor product.
    """
    a = _family_scales(a, "a")
    # 1/a overflows for a subnormal a; the norm check refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = 1.0 / a
    return _block_family(rep, a, inverse, np.eye(rep.j.block_dim, dtype=complex), swap=True)


def covariance_residual(
    fam: KinematicOperatorFamily,
    q: FourMomentum,
    L: LorentzTransform,
    D: np.ndarray,
) -> float | np.ndarray:
    """|| A(Lq) - D A(q) D^-1 ||_F / ||A(q)||_F for a matched pair (L, D).

    D must be the spinor representative of L: exp(i K.phi) for a pure boost by
    phi, exp(i J.theta) for the rotation by -theta (conjugation by exp(iJ.theta)
    rotates momenta the opposite way). For a batch of N momenta, L and D are
    one pair, a stack of N pairs (one per momentum), or k such stacks, shapes
    (k, N, 4, 4) and (k, N, n, n); the residuals come back as an (N,) or
    (k, N) array, after the family axes of a family stack. A(q) is evaluated
    once, and every image A(Lq) in one call.

    Raises when a norm overflows: a family scaled near the float range can
    have finite matrices whose norms are not, and would read residual 0.
    """
    return _covariance_residual(fam, fam.matrix_at(q), q, L, D)


def _covariance_residual(fam, A1, q, L, D) -> float | np.ndarray:
    """covariance_residual with A1 = fam.matrix_at(q) already evaluated."""
    A2 = fam.matrix_at(q.transform(L))
    A1 = fam._spread(A1, A2.ndim - A1.ndim)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = stack_norm(A1, 2)
        # the difference overwrites the conjugated stack, a fresh array
        diff = fam.conjugated(D, A1)
        r = stack_norm(np.subtract(A2, diff, out=diff), 2) / scale
    if not (np.isfinite(scale).all() and np.isfinite(r).all()):
        raise ValueError("the family's norm overflows at a sampled momentum; rescale it")
    return _scalar_or_stack(r)


def stack_pairs(pairs) -> tuple[LorentzTransform, np.ndarray]:
    """Lorentz pairs (L, D) of equal shapes as one pair stack, with a new
    leading axis: for covariance_residual's pair stacks."""
    Ls, Ds = zip(*pairs)
    return LorentzTransform(np.stack([L.matrix for L in Ls])), np.stack(Ds)


_MASS_RANGE = (0.1, 10.0)
_MOMENTUM_FACTOR = 5.0


def _directions(w: np.ndarray) -> np.ndarray:
    """Unit vectors uniform on the sphere from uniforms w of shape (..., 2):
    z = 1 - 2 w0 and the azimuth 2 pi w1, on a trailing axis of 3. By
    Archimedes' theorem z is uniform on the sphere (Marsaglia, Ann. Math.
    Stat. 43, 1972), so each direction takes two words of the stream."""
    z = 1.0 - 2.0 * w[..., 0]
    rho = np.sqrt((1.0 - z) * (1.0 + z))
    azimuth = 2.0 * np.pi * w[..., 1]
    return np.stack([rho * np.cos(azimuth), rho * np.sin(azimuth), z], axis=-1)


def sample_momenta(rng: np.random.Generator, n: int) -> FourMomentum:
    """Reproducible random on-shell momenta: m log-uniform in [0.1, 10],
    |p| uniform in [0, 5m], direction uniform on the sphere.

    One rng.random((n, 4)) call: momentum k is row k, read as (mass,
    direction, direction, |p|), so it starts 4k words into the stream and n
    calls with n = 1 equal one call with n bit for bit."""
    w = rng.random((n, 4))
    lo, hi = np.log(_MASS_RANGE[0]), np.log(_MASS_RANGE[1])
    m = np.exp(lo + (hi - lo) * w[:, 0])
    return FourMomentum(m, ((_MOMENTUM_FACTOR * m) * w[:, 3])[:, None] * _directions(w[:, 1:3]))


# largest rapidity of the random boosts drawn for the covariance checks
_PAIR_RAPIDITY_MAX = 1.5


def _random_vectors(rng: np.random.Generator, max_lengths) -> np.ndarray:
    """One random vector per entry of max_lengths (any shape; the result has
    a trailing axis of 3): a direction uniform on the sphere times a length
    uniform in [0, max_length). One rng.random call: entry k in C order
    reads three words, as (direction, direction, length)."""
    max_lengths = np.asarray(max_lengths, dtype=float)
    w = rng.random(max_lengths.shape + (3,))
    return (max_lengths * w[..., 2])[..., None] * _directions(w[..., :2])


def random_transform_pairs(
    rep: RepGenerators, rng: np.random.Generator, n: int
) -> tuple[tuple[LorentzTransform, np.ndarray], tuple[LorentzTransform, np.ndarray]]:
    """n random boost pairs and n random rotation pairs as two stacked pairs,
    each evaluated in one stacked call.

    One _random_vectors call draws all 2n vectors: pair k reads six words,
    a rapidity phi of length below 1.5 and then a rotation vector theta of
    length below pi, so n calls with n = 1 draw the same stream as one call
    with n. A boost pair is (vector_boost(phi), exp(i K.phi)); a rotation
    pair is D = exp(i J.theta) with the vector rotation by -theta, since
    exp(iJ.theta) A(p) exp(-iJ.theta) = A(R(-theta)p)."""
    draws = _random_vectors(rng, np.broadcast_to((_PAIR_RAPIDITY_MAX, np.pi), (n, 2)))
    phi, theta = draws[:, 0], draws[:, 1]
    return (vector_boost(phi), boost_matrix(rep, phi)), (vector_rotation(-theta), rotation_matrix(rep, theta))


def is_fully_kinematic(fam: KinematicOperatorFamily, *, samples: int, tol: float, seed: int) -> dict:
    """Check A(p)^2 = I, {A(0), K} = 0 and covariance over random momenta and
    random pure boosts/rotations; reports the max residual of each condition,
    a flag per condition and `pass`, all three holding, as a JSON-ready dict.
    `samples`, `tol` and `seed` have no default: each caller states the
    sweep and the bound it judges at.

    A family stack is checked on one draw of momenta and pairs, and reports
    the largest residual of each condition over its families."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    rng = np.random.default_rng(seed)
    momenta = sample_momenta(rng, samples)
    pairs = stack_pairs(random_transform_pairs(fam.rep, rng, samples))
    # A(q) once, for the square and for the covariance. A family scaled near
    # the float range can overflow once boosted: a residual that is not
    # finite is refused, not reported
    A = fam.matrix_at(momenta)
    with np.errstate(over="ignore", invalid="ignore"):
        sq_worst = float(np.max(stack_norm(_squared(A, fam.antilinear) - np.eye(fam.rep.dim), 2)))
        anti_worst = fam.anticommutator_residual()
    cov_worst = float(np.max(_covariance_residual(fam, A, momenta, *pairs)))

    residuals = {
        "square": sq_worst,
        "anticommutator": anti_worst,
        "covariance": cov_worst,
    }
    if not all(map(math.isfinite, residuals.values())):
        raise ValueError(f"a residual of the family overflows ({residuals}); rescale it")
    return {
        "squares_to_identity": sq_worst <= tol,
        "anticommutes": anti_worst <= tol,
        "covariant": cov_worst <= tol,
        "max_residuals": residuals,
        "seed": seed,
        "samples": samples,
        "tol": tol,
        # the residuals are finite, so this is all three conditions
        "pass": max(residuals.values()) <= tol,
    }
