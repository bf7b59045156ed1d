"""Momentum/rapidity bookkeeping, boost evaluation, the momentum-dependent parity
operator, and the fully-kinematic-operator checker.

Every Lorentz representative is the lift of a 2x2 SL(2,C) matrix through
its spin-j image Sym^{2j} (reps.symmetric_power, RepGenerators.lift): the
boost exp(i K.phi) lifts A = exp(sigma.phi/2) and A^-1 = adj A, the
rotation exp(i J.theta) lifts R = exp(i sigma.theta/2), and the parity
operator exp(2i K.phi) eta lifts the polynomial (E + sigma.p)/m with no
exponential at all. Only the 2x2 exponentials go through linalg.

A family A(p) is evaluated as B(phi) A(0) B(phi)^-1 with B = exp(i K.phi); for
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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import anticommutator, expm_hermitian, expm_i_hermitian, stack_norm
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
    "KinematicCheckReport",
    "sample_momenta",
    "random_boost_pair",
    "random_rotation_pair",
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

    The energy is derived, E = sqrt(m^2 + |p|^2), so the mass shell holds by
    construction (natural units). len(), iteration and q[k] run over the
    leading axis, so a stack reads like the list of its momenta.
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
        return q

    @property
    def E(self) -> np.ndarray:
        return np.sqrt(self.m**2 + np.vecdot(self.p, self.p))

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
        to its energy."""
        v = L.apply(self.four_vector)
        out = FourMomentum(np.broadcast_to(self.m, v.shape[:-1]), v[..., 1:])
        if (np.abs(out.E - v[..., 0]) > 1e-9 * np.maximum(1.0, np.abs(v[..., 0]))).any():
            raise ValueError("transformed momentum is off-shell; inconsistent inputs")
        return out


_FLOAT_TINY = sys.float_info.min


def rapidity_from_momentum(q: FourMomentum) -> np.ndarray:
    """Rapidity vector phi = asinh(|p|/m) p-hat, so cosh|phi| = E/m, on a
    trailing axis of 3 after the stack axes of q."""
    p = q.p
    pn = np.sqrt(np.vecdot(p, p, keepdims=True))
    phi = np.arcsinh(pn / q.m[..., None])
    if phi.max(initial=0.0) > RAPIDITY_MAX:
        raise ValueError(f"rapidity {phi.max():.3f} exceeds the overflow cap {RAPIDITY_MAX}")
    # p-hat, and 0 at rest: a non-zero |p| is at least 1e-162, far above the
    # smallest normal float, and phi = 0 wherever |p| underflows to 0
    return phi * (p / np.maximum(pn, _FLOAT_TINY))


# sigma/2 (for the 2x2 generators of boosts and rotations) and (1, sigma)
# (for E + sigma.p), each 2x2 matrix flattened to a row
_HALF_SIGMA = np.array(pauli_matrices()).reshape(3, 4) / 2.0
_ONE_SIGMA = np.array([np.eye(2), *pauli_matrices()]).reshape(4, 4)
_HALF_SIGMA.flags.writeable = _ONE_SIGMA.flags.writeable = False


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


def rotation_matrix(rep: RepGenerators, theta) -> np.ndarray:
    """exp(i J.theta), unitary: the lift of R = exp(i sigma.theta/2) as
    Sym^{2j}(R) on both factors; a stack (..., 3) of rotation vectors gives
    a stack of matrices."""
    S = symmetric_power(expm_i_hermitian(_pauli_dot(np.asarray(theta, dtype=float), _HALF_SIGMA)), rep.j)
    return rep.lift(S, S)


def parity_operator(rep: RepGenerators, q: FourMomentum) -> np.ndarray:
    """P(q) = exp(2i K.phi) eta = B(phi) eta B(phi)^-1; squares to the identity
    with eigenvalues +-1, each of multiplicity 2j+1.

    exp(sigma.phi) = (E + sigma.p)/m, so P(q) is a polynomial in p/m with no
    exponential: offdiag(Sym^{2j}((E + sigma.p)/m), Sym^{2j}((E - sigma.p)/m))
    on (j,0)+(0,j). It refuses the momenta boost_matrix(rep, 2 phi) refuses.
    """
    _checked_rapidity(2.0 * rapidity_from_momentum(q))
    u = q.p / q.m[..., None]
    e = np.sqrt(1.0 + np.vecdot(u, u, keepdims=True))
    S = symmetric_power(_pauli_dot(np.concatenate([e, u], axis=-1), _ONE_SIGMA), rep.j)
    return rep.lift(S, adjugate_power(S), swap=True)


@dataclass(frozen=True)
class KinematicOperatorFamily:
    """Operator family determined by its rest-frame matrix A(0), or a stack of
    families given by a stack (k, n, n) of rest matrices; in a result the
    family axes lead and the momentum axes follow.

    Linear: A(q) = B A(0) B^-1.  Anti-linear (A(0) = M o K): the matrix part
    evaluates as B M conj(B)^-1 and A(q)^2 means M(q) conj(M(q)).
    """

    rep: RepGenerators
    rest_matrix: np.ndarray
    antilinear: bool = False

    def conjugated(self, D: np.ndarray, M: np.ndarray) -> np.ndarray:
        """D M D^-1, or D M conj(D)^-1 for an anti-linear family, with D and
        M broadcast against each other as stacks.

        D represents a Lorentz transformation (a boost, a rotation, or a stack
        of them), so D^-1 = eta D^dagger eta and nothing is inverted.
        """
        # eta is a permutation, so a product with it is a gather of columns.
        # The linear case forms X D^dagger as conj(conj(X) D^T), with D^T a
        # view. The stack is formed a block at a time, so that besides the
        # result only a few blocks are held; each matrix goes through the
        # same products as in one call over the whole stack
        shape = np.broadcast_shapes(D.shape, M.shape)
        D, M = np.broadcast_to(D, shape), np.broadcast_to(M, shape)
        out = np.empty(shape, dtype=np.result_type(D, M))
        for block in _blocks(shape[:-2]):
            _conjugate_block(D[block], M[block], self.rep.eta_index, self.antilinear, out[block])
        return out

    def _spread(self, M: np.ndarray, axes: int) -> np.ndarray:
        """M, whose leading axes are the family axes, with `axes` unit axes
        put after them: it then broadcasts against a stack of that many axes."""
        f = self.rest_matrix.ndim - 2
        return M.reshape(M.shape[:f] + (1,) * axes + M.shape[f:])

    def matrix_at(self, q: FourMomentum) -> np.ndarray:
        B = boost_matrix(self.rep, rapidity_from_momentum(q))
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


# matrices per block of KinematicOperatorFamily.conjugated: its temporaries
# are a few blocks, not stacks of the result's size
_BLOCK = 32


def _blocks(shape: tuple[int, ...]):
    """Index tuples that split a stack of this shape into blocks of at most
    _BLOCK matrices along its last axis."""
    if not shape:
        yield ()
        return
    for lead in np.ndindex(shape[:-1]):
        for k in range(0, shape[-1], _BLOCK):
            yield lead + (slice(k, k + _BLOCK),)


def _conjugate_block(D, M, index, antilinear: bool, out: np.ndarray) -> None:
    """out = D M eta D^dagger eta (anti-linear: D M eta D^T eta) for one
    block, with eta the permutation `index`."""
    X = D @ M[..., index]
    if not antilinear:
        np.conjugate(X, out=X)
    X = X @ np.swapaxes(D, -1, -2)
    if not antilinear:
        np.conjugate(X, out=X)
    np.take(X, index, axis=-1, out=out, mode="clip")


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


def _check_rest_norms(rest: np.ndarray, antilinear: bool) -> None:
    """Refuse a rest matrix (or stack) whose A(0) or A(0)^2 has an entry or a
    Frobenius norm that is not finite: the checks on such a family would read
    nan or inf residuals."""
    with np.errstate(over="ignore", invalid="ignore"):
        ok = np.isfinite(stack_norm(rest, 2)) & np.isfinite(stack_norm(_squared(rest, antilinear), 2))
    if not ok.all():
        where = f" (stack index {np.argwhere(~ok)[0].tolist()})" if ok.ndim else ""
        raise ValueError(f"the rest matrix or its square overflows{where}; rescale the family")


def parity_family(rep: RepGenerators) -> KinematicOperatorFamily:
    """The parity family: A(0) = eta."""
    return KinematicOperatorFamily(rep=rep, rest_matrix=rep.eta.copy())


def scaled_swap_family(rep: RepGenerators, a) -> KinematicOperatorFamily:
    """Linear family A(0) = offdiag(a I, a^-1 I); fully kinematic for any a != 0.

    An array of a gives the stack of those families. Raises for an a that is
    zero or not finite, or whose A(0) has a norm that overflows.
    """
    a = _family_scales(a, "a")
    d = rep.j.block_dim
    I = np.eye(d, dtype=complex)
    rest = np.zeros(a.shape + (2 * d, 2 * d), dtype=complex)
    rest[..., :d, d:] = a[..., None, None] * I
    # 1/a overflows for a subnormal a; the norm check below refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        rest[..., d:, :d] = (1.0 / a)[..., None, None] * I
    _check_rest_norms(rest, antilinear=False)
    return KinematicOperatorFamily(rep=rep, rest_matrix=rest)


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
    return float(r) if r.ndim == 0 else r


def stack_pairs(pairs) -> tuple[LorentzTransform, np.ndarray]:
    """Lorentz pairs (L, D) of equal shapes as one pair stack, with a new
    leading axis: for covariance_residual's pair stacks."""
    Ls, Ds = zip(*pairs)
    return LorentzTransform(np.stack([L.matrix for L in Ls])), np.stack(Ds)


def sample_momenta(
    rng: np.random.Generator,
    n: int,
    mass_range: tuple[float, float] = (0.1, 10.0),
    momentum_factor: float = 5.0,
) -> FourMomentum:
    """Reproducible random on-shell momenta: m log-uniform in mass_range,
    |p| uniform in [0, momentum_factor*m], direction uniform on the sphere."""
    u = np.empty((n, 2))
    d = np.empty((n, 3))
    # one momentum at a time: a normal draw takes a variable share of the
    # stream, so the per-momentum draw order cannot be vectorised. The loop
    # only draws; the arithmetic of rng.uniform (lo + (hi - lo) u) and of
    # np.linalg.norm follows on whole arrays, which round as the scalar calls
    for k in range(n):
        u[k, 0] = rng.random()
        rng.standard_normal(out=d[k])
        u[k, 1] = rng.random()
    lo, hi = np.log(mass_range[0]), np.log(mass_range[1])
    m = np.exp(lo + (hi - lo) * u[:, 0])
    d /= np.sqrt(np.vecdot(d, d))[:, None]
    return FourMomentum(m, ((momentum_factor * m) * u[:, 1])[:, None] * d)


# largest rapidity of the random boosts drawn for the covariance checks
_PAIR_RAPIDITY_MAX = 1.5


def _random_vectors(rng: np.random.Generator, max_lengths) -> np.ndarray:
    """One random vector per entry of max_lengths (any shape; the result has
    a trailing axis of 3): a direction uniform on the sphere times a length
    uniform in [0, max_length). Drawn entry by entry in C order, each as
    normal(3) then uniform(0, max_length), with the rounding of those calls."""
    max_lengths = np.asarray(max_lengths, dtype=float)
    d = np.empty(max_lengths.shape + (3,))
    u = np.empty(max_lengths.shape)
    flat_d, flat_u = d.reshape(-1, 3), u.reshape(-1)
    # a normal draw takes a variable share of the stream: one entry at a time
    for k in range(u.size):
        rng.standard_normal(out=flat_d[k])
        flat_u[k] = rng.random()
    d /= np.sqrt(np.vecdot(d, d))[..., None]
    return (max_lengths * u)[..., None] * d


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
    return _boost_pair(rep, _random_vectors(rng, max_rapidity))


def random_rotation_pair(
    rep: RepGenerators, rng: np.random.Generator
) -> tuple[LorentzTransform, np.ndarray]:
    """A random rotation and its matched spinor representative: D =
    exp(i J.theta) with the vector rotation by -theta."""
    return _rotation_pair(rep, _random_vectors(rng, np.pi))


def random_transform_pairs(
    rep: RepGenerators, rng: np.random.Generator, n: int
) -> tuple[tuple[LorentzTransform, np.ndarray], tuple[LorentzTransform, np.ndarray]]:
    """n random boost pairs and n random rotation pairs as two stacked pairs,
    drawn from rng as n alternating random_boost_pair / random_rotation_pair
    calls would draw them, then evaluated in one stacked call each."""
    draws = _random_vectors(rng, np.broadcast_to((_PAIR_RAPIDITY_MAX, np.pi), (n, 2)))
    return _boost_pair(rep, draws[:, 0]), _rotation_pair(rep, draws[:, 1])


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
    random pure boosts/rotations; reports the max residual of each condition.

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
    return KinematicCheckReport(
        squares_to_identity=sq_worst <= tol,
        anticommutes=anti_worst <= tol,
        covariant=cov_worst <= tol,
        max_residuals=residuals,
        seed=seed,
        samples=samples,
        tol=tol,
    )
