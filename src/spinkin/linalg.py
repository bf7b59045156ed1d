"""Dense complex linear-algebra kernel: closed-form exponentials of 2x2
Hermitian matrices, norms of a stack, nullspaces and anti-linear maps.

Every Lorentz representative is the spin-j lift of a 2x2 matrix, so the
exponentials take only 2x2 matrices, H = a I + b.sigma, and evaluate
exp(H) and exp(iH) from cosh/sinh and cos/sin of |b|, with no
eigendecomposition. They and `stack_norm` take a stack: any leading axes
index independent matrices, and a single matrix is a stack with no leading
axes.
All operations are pure functions on immutable values (inputs are never mutated,
outputs are fresh arrays), so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "expm_hermitian",
    "expm_i_hermitian",
    "stack_norm",
    "nullspace",
    "AntiLinearMap",
    "anticommutator",
]


def _as_square(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """M as a complex stack (..., n, n) with finite entries."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries")
    return M


_FLOAT_TINY = sys.float_info.min

# (I, sigma) and (I, i sigma), each 2x2 matrix flattened to a row
_ONE_SIGMA = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]], dtype=complex)
_ONE_I_SIGMA = _ONE_SIGMA * np.array([[1], [1j], [1j], [1j]])
# h @ _PAULI_COEFFS = tr((I, sigma) H)/2 for a flattened 2x2 matrix h: the
# coefficients of H = c0 I + c.sigma. Each is a half-sum of two entries, so
# a stack rounds as its rows
_PAULI_COEFFS = _ONE_SIGMA.conj().T / 2.0
for _table in (_ONE_SIGMA, _ONE_I_SIGMA, _PAULI_COEFFS):
    _table.flags.writeable = False


def _pauli_parts(H: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, r, c) for H = a I + b.sigma, or for each matrix of a stack
    (..., 2, 2): c = (a, b) on a trailing axis of 4, and r = |b| raised to
    at least the smallest normal float.

    Refused unless every matrix is 2x2 with finite entries and a finite norm,
    and ||H - H^dagger||_F <= 1e-10 max(1, ||H||_F); the anti-Hermitian part
    within that bound is dropped.
    """
    H = np.asarray(H, dtype=complex)
    if H.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a stack of them, got shape {H.shape}")
    # not -1: a stack may be empty
    c = H.reshape(H.shape[:-2] + (4,)) @ _PAULI_COEFFS
    # (I, sigma) is orthogonal with squared norms 2: ||H||_F^2 = 2 |c|^2, and
    # H - H^dagger = 2i (im c0 I + im c.sigma). A norm that overflows is
    # refused below
    with np.errstate(over="ignore"):
        norm2 = 2.0 * np.vecdot(c, c).real
        skew2 = 8.0 * np.vecdot(c.imag, c.imag)
    if not ((norm2 < np.inf) & (skew2 <= 1e-20 * np.maximum(1.0, norm2))).all():
        if not np.isfinite(H).all():
            raise ValueError("matrix has non-finite entries")
        if not (norm2 < np.inf).all():
            raise ValueError("matrix norm overflows double precision")
        raise ValueError("matrix is not Hermitian")
    c = c.real
    # at |b| = 0, r is the smallest normal float, where sinh r = sin r = r
    # and cosh r = cos r = 1: the closed forms need no case of their own
    r = np.maximum(np.sqrt(np.vecdot(c[..., 1:], c[..., 1:])), _FLOAT_TINY)
    return c[..., 0], r, c


def expm_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(H) = e^a (cosh|b| I + (sinh|b|/|b|) b.sigma) for a Hermitian
    H = a I + b.sigma, or for each matrix of a stack (..., 2, 2).

    e^a and cosh|b| are formed apart, so besides the largest eigenvalue
    a + |b| the norm |b| alone must be at most 700."""
    a, r, c = _pauli_parts(H)
    if (np.maximum(a, 0.0) + r).max(initial=0.0) > 700.0:
        raise ValueError("matrix exponential overflows double precision")
    ea = np.exp(a)
    w = c * (ea * np.sinh(r) / r)[..., None]
    w[..., 0] = ea * np.cosh(r)
    return (w @ _ONE_SIGMA).reshape(a.shape + (2, 2))


def expm_i_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(iH) = e^{ia} (cos|b| I + i (sin|b|/|b|) b.sigma) for a Hermitian
    H = a I + b.sigma, or for each matrix of a stack (..., 2, 2); unitary."""
    a, r, c = _pauli_parts(H)
    w = c * (np.sin(r) / r)[..., None]
    w[..., 0] = np.cos(r)
    return (np.exp(1j * a)[..., None] * (w @ _ONE_I_SIGMA)).reshape(a.shape + (2, 2))


def _sum_of_squares(x: np.ndarray):
    """The sum of the squares of the real and the imaginary parts over the
    last axis."""
    sq = np.vecdot(x.real, x.real)
    return sq + np.vecdot(x.imag, x.imag) if x.dtype.kind == "c" else sq


def stack_norm(x: np.ndarray, ndim: int) -> np.ndarray:
    """Euclidean norm over the last `ndim` axes (1: vectors, 2: the Frobenius
    norm of matrices) for every entry of the leading axes.

    Formed as np.linalg.norm forms the norm of one array (the dot products of
    the real and the imaginary parts), so each entry whose sum of squares is
    a normal float equals that single call bit for bit. An entry whose sum
    underflows is formed again on x over its largest part, so a small norm
    is right down to the subnormals and a zero entry stays 0; a sum that
    overflows reads inf. A stack of one equals the unstacked value.
    """
    x = np.asarray(x)
    if ndim != 1:
        lead = x.ndim - ndim
        x = x.reshape(x.shape[:lead] + (math.prod(x.shape[lead:]),))  # not -1: a stack may be empty
    sq = _sum_of_squares(x)
    norm = np.sqrt(sq)
    # fmin skips a nan, so a nan entry hides no other; it fails `<` and stays nan
    if not np.fmin.reduce(sq, axis=None, initial=np.inf) < _FLOAT_TINY:
        return norm
    redo = sq < _FLOAT_TINY
    y = x[redo]
    if not y.any():  # zero entries, whose norm 0 is exact
        return norm
    # writable, and 0-d for one entry
    norm = np.asarray(norm)
    scale = np.maximum(np.abs(y.real), np.abs(y.imag)).max(axis=-1, initial=0.0)
    # the parts of y over scale lie in [-1, 1], one of them at +-1, so their
    # squares cannot underflow to a wrong sum; a zero entry divides by 1
    norm[redo] = scale * np.sqrt(_sum_of_squares(y / np.where(scale > 0.0, scale, 1.0)[..., None]))
    return norm[()]


def _scalar_or_stack(x):
    """A 0-d result as a Python scalar, a stack as it is."""
    return x.item() if x.ndim == 0 else x


def nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of M, as columns.

    Singular values at most 1e-10 times the largest singular value count as
    zero.
    Returns an (n, k) array; k = 0 for an injective map, k = n for the zero map.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {M.shape}")
    if not np.all(np.isfinite(M.view(float))):
        raise ValueError("matrix has non-finite entries")
    n = M.shape[1]
    if M.size == 0:
        return np.eye(n, dtype=complex)
    _, s, Vh = np.linalg.svd(M)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.eye(n, dtype=complex)
    rank = int(np.sum(s > 1e-10 * smax))
    return Vh[rank:].conj().T


@dataclass(frozen=True)
class AntiLinearMap:
    """Anti-linear map psi -> matrix @ conj(psi).

    Anti-linearity A(c*psi) = conj(c)*A(psi) holds by construction.
    """

    matrix: np.ndarray

    def __post_init__(self):
        M = _as_square(self.matrix, "linear part")
        if M.ndim != 2:
            raise ValueError(f"linear part must be one matrix, got shape {M.shape}")
        object.__setattr__(self, "matrix", M)

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        """M conj(psi) for one spinor, or for each spinor of a stack (..., n)."""
        return (self.matrix @ np.conj(np.asarray(psi, dtype=complex))[..., None])[..., 0]


def anticommutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B + B @ A
