"""Dense complex linear-algebra kernel: matrix exponentials, nullspaces,
anti-linear maps, and the repo-wide matrix JSON schema.

The exponentials and `stack_norm` take a stack: any leading axes index
independent matrices, and a single matrix is a stack with no leading axes.
All operations are pure functions on immutable values (inputs are never mutated,
outputs are fresh arrays), so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "expm_hermitian",
    "expm_i_hermitian",
    "stack_norm",
    "nullspace",
    "AntiLinearMap",
    "anticommutator",
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
]


def _as_square(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """M as a complex stack (..., n, n) with finite entries."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has non-finite entries")
    return M


def _check_hermitian(H: np.ndarray) -> None:
    """Raise unless ||H - H^dagger||_F <= 1e-10 max(1, ||H||_F) for every
    matrix of the stack (finite entries already checked)."""
    flat = H.shape[:-2] + (H.shape[-2] * H.shape[-1],)  # not -1: a stack may be empty
    skew = (H - H.conj().swapaxes(-1, -2)).reshape(flat)
    h = H.reshape(flat)
    # the bound on squared norms: vecdot(x, x) = sum |x_k|^2
    if (np.vecdot(skew, skew).real > 1e-20 * np.maximum(1.0, np.vecdot(h, h).real)).any():
        raise ValueError("matrix is not Hermitian")


def _expm_eigh(H: np.ndarray, f, max_eigenvalue: float) -> np.ndarray:
    """U diag(f(w)) U^dagger from eigh(H) = (w, U), for H or each matrix of a
    stack; every eigenvalue must be at most max_eigenvalue."""
    H = _as_square(H)
    _check_hermitian(H)
    w, U = np.linalg.eigh(H)
    if w.max(initial=0.0) > max_eigenvalue:
        raise ValueError("matrix exponential overflows double precision")
    Uf = U * f(w)[..., None, :]
    return Uf @ np.conjugate(U, out=U).swapaxes(-1, -2)


def expm_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(H) for Hermitian H, or for each matrix of a stack (..., n, n), via
    eigendecomposition (exactly positive definite)."""
    return _expm_eigh(H, np.exp, 700.0)


def expm_i_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H, or for each matrix of a stack (..., n, n), via
    eigendecomposition (exactly unitary spectrum)."""
    return _expm_eigh(H, lambda w: np.exp(1j * w), np.inf)


def stack_norm(x: np.ndarray, ndim: int) -> np.ndarray:
    """Euclidean norm over the last `ndim` axes (1: vectors, 2: the Frobenius
    norm of matrices) for every entry of the leading axes.

    Formed as np.linalg.norm forms the norm of one array (the dot products of
    the real and the imaginary parts), so each entry equals that single call
    bit for bit, and a stack of one equals the unstacked value.
    """
    x = np.asarray(x)
    if ndim != 1:
        lead = x.ndim - ndim
        x = x.reshape(x.shape[:lead] + (math.prod(x.shape[lead:]),))  # not -1: a stack may be empty
    sq = np.vecdot(x.real, x.real)
    if x.dtype.kind == "c":
        sq = sq + np.vecdot(x.imag, x.imag)
    return np.sqrt(sq)


def nullspace(M: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of M, as columns.

    Singular values below tol times the largest singular value count as zero.
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
    rank = int(np.sum(s > tol * smax))
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


# ---------------------------------------------------------------------------
# Repo-wide matrix JSON schema: {"rows": n, "cols": n, "data": [[re, im], ...]}
# row-major. Floats round-trip bit-exactly through repr/json.

def matrix_to_json(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {M.shape}")
    data = [[float(z.real), float(z.imag)] for z in M.reshape(-1)]
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    """The inverse of matrix_to_json: the decoder a reader of the JSON output
    uses; the library itself only writes the schema."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} does not match {rows}x{cols}")
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    return flat.reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in v]
