"""Dense complex linear-algebra kernel: matrix exponentials, nullspaces,
anti-linear maps, and the repo-wide matrix JSON schema.

All operations are pure functions on immutable values (inputs are never mutated,
outputs are fresh arrays), so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "expm_hermitian",
    "expm_i_hermitian",
    "nullspace",
    "AntiLinearMap",
    "antilinear_compose",
    "commutator",
    "anticommutator",
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
]


def _as_square(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M.view(float))):
        raise ValueError(f"{name} has non-finite entries")
    return M


def _as_hermitian(H: np.ndarray) -> np.ndarray:
    H = _as_square(H)
    if np.linalg.norm(H - H.conj().T) > 1e-10 * max(1.0, np.linalg.norm(H)):
        raise ValueError("matrix is not Hermitian")
    return H


def expm_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(H) for Hermitian H via eigendecomposition (exactly positive definite)."""
    w, U = np.linalg.eigh(_as_hermitian(H))
    if w.max(initial=0.0) > 700.0:
        raise ValueError("matrix exponential overflows double precision")
    return (U * np.exp(w)) @ U.conj().T


def expm_i_hermitian(H: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H via eigendecomposition (exactly unitary spectrum)."""
    w, U = np.linalg.eigh(_as_hermitian(H))
    return (U * np.exp(1j * w)) @ U.conj().T


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
        object.__setattr__(self, "matrix", _as_square(self.matrix, "linear part"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        return self.matrix @ np.conj(np.asarray(psi, dtype=complex))

    def squared(self) -> np.ndarray:
        """The linear map A o A, with matrix M conj(M)."""
        return antilinear_compose(self, self)


def antilinear_compose(A: AntiLinearMap, B: AntiLinearMap) -> np.ndarray:
    """Linear part of the composition A o B, i.e. M_A conj(M_B)."""
    if A.dim != B.dim:
        raise ValueError(f"dimension mismatch: {A.dim} vs {B.dim}")
    return A.matrix @ np.conj(B.matrix)


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A


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
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} does not match {rows}x{cols}")
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    return flat.reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in v]
