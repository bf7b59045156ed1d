"""Generators of the (j,0)+(0,j) and (j,0)x(0,j) representations, one
RepGenerators type for both, and the 4-vector representation.

Conventions: the top block is the right-handed (j,0) component, boosted by
exp(+J.phi); inside each block the basis is the J_z eigenbasis descending from
+j to -j; the metric signature is (+,-,-,-).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    "MINKOWSKI_METRIC",
]

MINKOWSKI_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True, order=True)
class HalfInt:
    """Spin label j stored as twice its value, so j = twice/2 with twice >= 1."""

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int) or self.twice < 1:
            raise ValueError(f"twice must be a positive integer, got {self.twice!r}")

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
    two builders set it. J and K define the representation; its group
    elements are evaluated by `lift` from spin-j images of 2x2 matrices.
    """

    j: HalfInt
    dim: int
    J: tuple[np.ndarray, np.ndarray, np.ndarray]
    K: tuple[np.ndarray, np.ndarray, np.ndarray]
    eta: np.ndarray
    tensor: bool = False

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
    g, summed over a constant table of monomial coefficients. It is a
    homomorphism, Sym(gh) = Sym(g) Sym(h), with Sym(exp(sigma.z/2)) =
    exp(J.z) for any complex 3-vector z: exp(sigma.phi/2) gives the spin-j
    boost and exp(i sigma.theta/2) the spin-j rotation.
    """
    index, exponents, table, _ = _symmetric_power_table(HalfInt.coerce(j).twice)
    g = np.asarray(g, dtype=complex)
    lead = g.shape[:-2]
    # g_v^k for the four entries v and k = 0..2j; the products g11^a g12^b
    # and g21^c g22^e; then each monomial as the product of two of those.
    # Elementwise products and one (1, M) @ table product per matrix round a
    # stacked entry exactly as its single call (a reduction such as prod()
    # does not: its loop order depends on the stack's shape)
    powers = np.power(g.reshape(lead + (2, 2, 1)), exponents)
    d = len(exponents)
    halves = (powers[..., :, 0, :, None] * powers[..., :, 1, None, :]).reshape(lead + (2 * d * d,))
    monomials = halves[..., index[0]] * halves[..., index[1]]
    return (monomials[..., None, :] @ table).reshape(lead + (d, d))


def adjugate_power(S: np.ndarray) -> np.ndarray:
    """Sym^{2j}(adj g) from S = Sym^{2j}(g), for one image or a stack.

    adj g = eps g^T eps^-1 with eps = i sigma_y, and Sym(eps) is the signed
    reversal, so the entry (x, y) is (-1)^(x+y) S[2j-y, 2j-x]. For det g = 1
    this is Sym^{2j}(g^-1).
    """
    _, _, _, sign = _symmetric_power_table(S.shape[-1] - 1)
    return S[..., ::-1, ::-1].swapaxes(-1, -2) * sign


@lru_cache(maxsize=16)
def _symmetric_power_table(twice: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(index, exponents, table, sign) of symmetric_power and adjugate_power,
    built once per spin from binomials and read-only.

    In the basis e_1^a e_2^(2j-a) / sqrt(a! (2j-a)!), index a descending, g
    sends e_1 to g11 e_1 + g21 e_2 and e_2 to g12 e_1 + g22 e_2. The
    monomial g11^k g12^l g21^(a-k) g22^(2j-a-l) (k + l = a') then carries
    C(a,k) C(2j-a,l) sqrt(C(2j,a)/C(2j,a')) into the entry (a', a): one
    entry per monomial, C(2j+3, 3) monomials (35 at 2j = 4).
    """
    n, d = twice, twice + 1
    exps = [
        (k11, k12, k21, n - k11 - k12 - k21)
        for k11 in range(n + 1)
        for k12 in range(n + 1 - k11)
        for k21 in range(n + 1 - k11 - k12)
    ]
    table = np.zeros((len(exps), d * d), dtype=complex)
    for row, (k11, k12, k21, _) in enumerate(exps):
        a, a_out = k11 + k21, k11 + k12  # powers of e_1 before and after
        weight = math.comb(a, k11) * math.comb(n - a, k12) * math.sqrt(math.comb(n, a) / math.comb(n, a_out))
        table[row, (n - a_out) * d + (n - a)] = weight
    # index[0] points at g11^k11 g12^k12 and index[1] at g21^k21 g22^k22 in
    # the flattened (2, 2j+1, 2j+1) products of powers
    k = np.array(exps).T
    index = np.array([k[0] * d + k[1], d * d + k[2] * d + k[3]])
    exponents = np.arange(n + 1, dtype=complex)
    sign = (-1.0) ** np.add.outer(np.arange(d), np.arange(d))
    for a in (index, exponents, table, sign):
        a.flags.writeable = False
    return index, exponents, table, sign


def rep_generators(j) -> RepGenerators:
    """Build the (j,0)+(0,j) generators with the block conventions above.

    The arrays are assembled afresh from the cached spin matrices on every
    call, so a caller may modify the ones it gets.
    """
    j = HalfInt.coerce(j)
    d = j.block_dim
    n = 2 * d
    S = np.array(spin_matrices(j))
    J = np.zeros((3, n, n), dtype=complex)
    K = np.zeros((3, n, n), dtype=complex)
    J[:, :d, :d] = J[:, d:, d:] = S
    K[:, :d, :d] = -1j * S
    K[:, d:, d:] = 1j * S
    eta = np.zeros((n, n), dtype=complex)
    eta[:d, d:] = eta[d:, :d] = np.eye(d)
    return RepGenerators(j=j, dim=n, J=tuple(J), K=tuple(K), eta=eta)


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

    def metric_residual(self) -> float:
        """|| Lambda^T g Lambda - g ||, zero for a true Lorentz transform (the
        largest over a stack)."""
        g = MINKOWSKI_METRIC
        M = self.matrix
        return float(np.max(np.linalg.norm(M.swapaxes(-1, -2) @ g @ M - g, axis=(-2, -1))))

    def apply(self, fourvec: np.ndarray) -> np.ndarray:
        return (self.matrix @ np.asarray(fourvec, dtype=float)[..., None])[..., 0]

    def compose(self, other: "LorentzTransform") -> "LorentzTransform":
        return LorentzTransform(self.matrix @ other.matrix)


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
    d = j.block_dim
    n = d * d
    A = np.array(spin_matrices(j))
    I = np.eye(d, dtype=complex)
    # J_a x I and I x J_a for all three axes in two einsum calls (np.kron per
    # axis costs several times more); in "aijkl", (i, j) is the row and
    # (k, l) the column of the product space, as in np.kron
    left = np.einsum("aik,jl->aijkl", A, I).reshape(3, n, n)
    right = np.einsum("ik,ajl->aijkl", I, A).reshape(3, n, n)
    # row k*d+i of S is the unit row i*d+k
    S = np.eye(n, dtype=complex)[_eta_index(j, True)]
    return RepGenerators(
        j=j, dim=n, J=tuple(left + right), K=tuple(-1j * left + 1j * right), eta=S, tensor=True
    )
