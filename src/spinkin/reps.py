"""Generators of the (j,0)+(0,j) and (j,0)x(0,j) representations, one
RepGenerators type for both, and the 4-vector representation. Only this
module lays out operators: RepGenerators.lift places every chiral block or
tensor factor, and the Sym^{2j} table hands out its own exponents.

Conventions: the top block is the right-handed (j,0) component, boosted by
exp(+J.phi); inside each block the basis is the J_z eigenbasis descending from
+j to -j; the metric signature is (+,-,-,-).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "HalfInt",
    "pauli_matrices",
    "spin_matrices",
    "RepGenerators",
    "rep_generators",
    "symmetric_power",
    "adjugate_power",
    "LorentzTransform",
    "vector_boost",
    "vector_rotation",
    "tensor_rep_generators",
]


# the largest 2j: gamma_tensor's dense weights grow as (2j)^6, to 15 MB at
# 2j = 16
_TWICE_MAX = 16


@dataclass(frozen=True, order=True)
class HalfInt:
    """Spin label j stored as twice its value, so j = twice/2 with
    1 <= twice <= 16. Every function that takes a spin coerces it to this
    label, so none builds the tables of a larger spin."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int) or self.twice < 1:
            raise ValueError(f"twice must be a positive integer, got {self.twice!r}")
        if self.twice > _TWICE_MAX:
            raise ValueError(f"2j = {self.twice} is past the largest supported spin, 2j = {_TWICE_MAX}")

    @property
    def j(self) -> float:
        return self.twice / 2.0

    @property
    def block_dim(self) -> int:
        """Dimension 2j+1 of one chiral block."""
        return self.twice + 1

    @property
    def dim(self) -> int:
        """Dimension 2(2j+1) of the (j,0)+(0,j) representation."""
        return 2 * (self.twice + 1)

    @classmethod
    def coerce(cls, value) -> "HalfInt":
        """Accept a HalfInt, an int/float spin value, or a string like '3/2'."""
        if isinstance(value, cls):
            return value
        from fractions import Fraction  # here, not at the top: fractions loads decimal

        twice = Fraction(value) * 2
        if twice.denominator != 1:
            raise ValueError(f"{value!r} is not a half-integer spin")
        return cls(int(twice))

    def __str__(self) -> str:
        return str(self.twice // 2) if self.twice % 2 == 0 else f"{self.twice}/2"


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return sx, sy, sz


def spin_matrices(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian angular-momentum matrices (J_x, J_y, J_z) of dimension 2j+1.

    J_z = diag(j, j-1, ..., -j); ladder coefficients sqrt(j(j+1) - m(m+1)).
    For j = 1/2 this returns the Pauli matrices over 2. Built once per spin:
    every call for the same j returns the same read-only arrays.
    """
    return _spin_matrices(HalfInt.coerce(j))


@lru_cache(maxsize=16)
def _spin_matrices(j: HalfInt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = j.block_dim
    m = j.j - np.arange(d)
    Jz = np.diag(m).astype(complex)
    Jp = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        Jp[k - 1, k] = np.sqrt(j.j * (j.j + 1) - m[k] * (m[k] + 1))
    Jm = Jp.conj().T
    Jx = (Jp + Jm) / 2.0
    Jy = (Jp - Jm) / 2.0j
    for M in (Jx, Jy, Jz):
        M.flags.writeable = False
    return Jx, Jy, Jz


@dataclass(frozen=True)
class RepGenerators:
    """Rotation/boost generators J, K and an involution eta of one representation.

    On (j,0)+(0,j) (rep_generators): J_a = diag(J_a, J_a), K_a = diag(-i J_a,
    +i J_a) and eta = offdiag(I, I), the chiral block swap. On (j,0)x(0,j)
    (tensor_rep_generators): Kronecker sums and eta = S, the tensor swap.
    On either, eta^2 = I exactly, eta commutes with rotations and
    anti-commutes with boosts.

    `tensor` tells the two apart (at 2j = 1 both have dimension 4); only the
    two builders set it. `lift` lays out every operator from its two spin-j
    factors, J and K included (lifted from the cached `spin_matrices` on
    first read, as each object's own writable arrays).
    """

    j: HalfInt
    spin_matrices: tuple[np.ndarray, np.ndarray, np.ndarray]
    tensor: bool = False

    @property
    def dim(self) -> int:
        return self.j.block_dim**2 if self.tensor else self.j.dim

    @property
    def J(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._generators[0]

    @property
    def K(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._generators[1]

    @property
    def eta(self) -> np.ndarray:
        return self._generators[2]

    @cached_property
    def _generators(self) -> tuple[tuple, tuple, np.ndarray]:
        """(J, K, eta) from the spin matrices A, each generator the lift of
        its two factors: diag(A, A) and diag(-iA, iA) on the direct sum,
        Kronecker sums A x I + I x A on the tensor product."""
        A = np.array(self.spin_matrices)
        if self.tensor:
            I = np.broadcast_to(np.eye(self.j.block_dim, dtype=complex), A.shape)
            left, right = self.lift(A, I), self.lift(I, A)
            J, K = left + right, -1j * left + 1j * right
        else:
            J, K = self.lift(A, A), self.lift(-1j * A, 1j * A)
        return tuple(J), tuple(K), np.eye(self.dim, dtype=complex)[self.eta_index]

    @property
    def eta_index(self) -> np.ndarray:
        """eta as the permutation it is: M @ eta = M[..., eta_index] and
        eta @ M = M[..., eta_index, :]."""
        return _eta_index(self.j, self.tensor)

    def lift(self, right: np.ndarray, left: np.ndarray, swap: bool = False) -> np.ndarray:
        """The matrix acting as `right` on (j,0) and `left` on (0,j), two
        (stacks of) spin-j matrices (..., d, d): diag(right, left) on the
        direct sum, right x left on the tensor product; times eta on the
        right when `swap`. Both stacks have the same shape."""
        if self.tensor:
            # (i, k, j, l) indexes row i*d+k and column j*d+l, as in np.kron;
            # eta swaps the column factors
            r = right[..., :, None, None, :] if swap else right[..., :, None, :, None]
            out = r * (left[..., None, :, :, None] if swap else left[..., None, :, None, :])
            return out.reshape(out.shape[:-4] + (self.dim, self.dim))
        d = right.shape[-1]
        out = np.zeros(right.shape[:-2] + (2 * d, 2 * d), dtype=complex)
        if swap:
            out[..., :d, d:], out[..., d:, :d] = right, left
        else:
            out[..., :d, :d], out[..., d:, d:] = right, left
        return out


@lru_cache(maxsize=32)
def _eta_index(j: HalfInt, tensor: bool) -> np.ndarray:
    """eta as a read-only permutation: row i of eta is the unit row
    index[i], which is how both generator builders form eta."""
    d = j.block_dim
    # the swap sends index i*d+k to k*d+i; the block swap sends the top
    # block to the bottom one
    index = np.arange(d * d).reshape(d, d).T.reshape(-1) if tensor else np.roll(np.arange(2 * d), d)
    index.flags.writeable = False
    return index


def symmetric_power(g, j) -> np.ndarray:
    """Sym^{2j}(g): the spin-j image of a 2x2 matrix g, or of each matrix of
    a stack (..., 2, 2), in the J_z basis of spin_matrices.

    Its entries are homogeneous polynomials of degree 2j in the entries of
    g, each a weighted sum of the monomials that feed it. It is a
    homomorphism, Sym(gh) = Sym(g) Sym(h), with Sym(exp(sigma.z/2)) =
    exp(J.z) for any complex 3-vector z: exp(sigma.phi/2) gives the spin-j
    boost and exp(i sigma.theta/2) the spin-j rotation.
    """
    index, exponents, weight, _, _, starts = _symmetric_power_table(HalfInt.coerce(j).twice)
    g = np.asarray(g, dtype=complex)
    lead = g.shape[:-2]
    # g_v^k for the four entries v and k = 0..2j; the products g11^a g12^b
    # and g21^c g22^e; then each monomial as the product of two of those,
    # weighted, and summed over its entry's segment. Elementwise products
    # and segment sums (one reduction per segment, whatever the stack) round
    # a stacked entry exactly as its single call (a reduction such as prod()
    # does not: its loop order depends on the stack's shape)
    powers = np.power(g.reshape(lead + (2, 2, 1)), exponents)
    d = len(exponents)
    halves = (powers[..., :, 0, :, None] * powers[..., :, 1, None, :]).reshape(lead + (2 * d * d,))
    monomials = halves[..., index[0]] * halves[..., index[1]]
    return np.add.reduceat(monomials * weight, starts, axis=-1).reshape(lead + (d, d))


def adjugate_power(S: np.ndarray) -> np.ndarray:
    """Sym^{2j}(adj g) from S = Sym^{2j}(g), for one image or a stack.

    adj g = eps g^T eps^-1 with eps = i sigma_y, and Sym(eps) is the signed
    reversal, so the entry (x, y) is (-1)^(x+y) S[2j-y, 2j-x]. For det g = 1
    this is Sym^{2j}(g^-1).
    """
    _, _, _, sign, _, _ = _symmetric_power_table(S.shape[-1] - 1)
    out = S[..., ::-1, ::-1].swapaxes(-1, -2) * sign
    # adding 0.0 turns the -0.0 of a negated zero into 0.0 and leaves every
    # other value as it is
    out += 0.0
    return out


@lru_cache(maxsize=16)
def _symmetric_power_table(twice: int) -> tuple[np.ndarray, ...]:
    """(index, exponents, weight, sign, monomials, starts) of symmetric_power,
    adjugate_power and higherspin.gamma_tensor, built once per spin from
    binomials, read-only.

    In the basis e_1^a e_2^(2j-a) / sqrt(a! (2j-a)!), index a descending, g
    sends e_1 to g11 e_1 + g21 e_2 and e_2 to g12 e_1 + g22 e_2. The
    monomial g11^k g12^l g21^(a-k) g22^(2j-a-l) (k + l = a') then carries
    the real weight C(a,k) C(2j-a,l) sqrt(C(2j,a)/C(2j,a')) into the one
    entry (a', a): C(2j+3, 3) monomials (35 at 2j = 4). Row r is the
    monomial with exponents monomials[r] = (k11, k12, k21, k22) and weight
    weight[r]; the rows are sorted by their flattened entry, so entry e is
    the sum of rows starts[e] to starts[e + 1] (every entry has at least
    one).
    """
    n, d = twice, twice + 1
    exps = [
        (k11, k12, k21, n - k11 - k12 - k21)
        for k11 in range(n + 1)
        for k12 in range(n + 1 - k11)
        for k21 in range(n + 1 - k11 - k12)
    ]
    rows = []
    for k11, k12, k21, k22 in exps:
        a, a_out = k11 + k21, k11 + k12  # powers of e_1 before and after
        w = math.comb(a, k11) * math.comb(n - a, k12) * math.sqrt(math.comb(n, a) / math.comb(n, a_out))
        rows.append(((n - a_out) * d + (n - a), w, (k11, k12, k21, k22)))
    rows.sort(key=lambda row: row[0])
    entry, weight, monomials = (np.array(x) for x in zip(*rows))
    starts = np.searchsorted(entry, np.arange(d * d))
    # index[0] points at g11^k11 g12^k12 and index[1] at g21^k21 g22^k22 in
    # the flattened (2, 2j+1, 2j+1) products of powers
    k = monomials.T
    index = np.array([k[0] * d + k[1], d * d + k[2] * d + k[3]])
    exponents = np.arange(n + 1, dtype=complex)
    sign = (-1.0) ** np.add.outer(np.arange(d), np.arange(d))
    for a in (index, exponents, weight, sign, monomials, starts):
        a.flags.writeable = False
    return index, exponents, weight, sign, monomials, starts


def rep_generators(j) -> RepGenerators:
    """The (j,0)+(0,j) generators with the block conventions above; each
    call's J, K and eta are its own, so a caller may modify them."""
    j = HalfInt.coerce(j)
    return RepGenerators(j, spin_matrices(j))


@dataclass(frozen=True)
class LorentzTransform:
    """4x4 real matrix acting on (p0, p1, p2, p3) with metric (+,-,-,-), or a
    stack (..., 4, 4) of them acting on a stack of 4-vectors."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.shape[-2:] != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {M.shape}")
        object.__setattr__(self, "matrix", M)

    def apply(self, fourvec: np.ndarray) -> np.ndarray:
        return (self.matrix @ np.asarray(fourvec, dtype=float)[..., None])[..., 0]


RAPIDITY_MAX = 30.0


def _unit_and_length(vec, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(vec / |vec|, |vec|) for a finite 3-vector or a stack of them; the
    unit vector is 0 where |vec| = 0."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1:] != (3,) or not np.isfinite(vec).all():
        raise ValueError(f"{what} must be a finite 3-vector")
    r = np.sqrt(np.vecdot(vec, vec))
    n = np.divide(vec, r[..., None], out=np.zeros_like(vec), where=r[..., None] > 0.0)
    return n, r


def vector_boost(phi) -> LorentzTransform:
    """Pure boost with rapidity vector phi: cosh/sinh entries along phi-hat.

    Maps the rest momentum (m, 0) to (m cosh phi, m sinh phi phi-hat). A stack
    of rapidities (..., 3) gives a stack of boosts.
    """
    n, r = _unit_and_length(phi, "rapidity")
    if (r > RAPIDITY_MAX).any():
        raise ValueError(f"rapidity {r.max():.3f} exceeds the overflow cap {RAPIDITY_MAX}")
    ch = np.cosh(r)
    L = np.empty(r.shape + (4, 4))
    L[..., 0, 0] = ch
    L[..., 0, 1:] = L[..., 1:, 0] = np.sinh(r)[..., None] * n
    L[..., 1:, 1:] = np.eye(3) + (ch - 1.0)[..., None, None] * (n[..., :, None] * n[..., None, :])
    return LorentzTransform(L)


def vector_rotation(theta) -> LorentzTransform:
    """Spatial rotation by angle |theta| about theta-hat (right-hand rule); a
    stack of rotation vectors (..., 3) gives a stack of rotations."""
    n, ang = _unit_and_length(theta, "rotation vector")
    X = np.zeros(ang.shape + (3, 3))
    X[..., 0, 1], X[..., 0, 2], X[..., 1, 2] = -n[..., 2], n[..., 1], -n[..., 0]
    X[..., 1, 0], X[..., 2, 0], X[..., 2, 1] = n[..., 2], -n[..., 1], n[..., 0]
    L = np.zeros(ang.shape + (4, 4))
    L[..., 0, 0] = 1.0
    s, c = np.sin(ang)[..., None, None], np.cos(ang)[..., None, None]
    L[..., 1:, 1:] = np.eye(3) + s * X + (1.0 - c) * (X @ X)
    return LorentzTransform(L)


def tensor_rep_generators(j) -> RepGenerators:
    """Generators of (j,0)x(0,j) on the (2j+1)^2-dimensional space.

    J = J x I + I x J and K = (-iJ) x I + I x (+iJ) as Kronecker sums; eta is
    the swap S(x tensor y) = y tensor x.
    """
    j = HalfInt.coerce(j)
    return RepGenerators(j, spin_matrices(j), tensor=True)
