"""Charge conjugation, Elko eigenspinor bases, the basis-dependent G operator,
the Schur rotation-invariance conditions, and numerical certification of the
spin-1/2 no-go results (no anti-linear fully kinematic operator; no rotation-
invariant G from a genuine basis; direction dependence at the origin).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kinematics import (
    FourMomentum,
    KinematicOperatorFamily,
    _check_rest_norms,
    _family_scales,
    _random_vectors,
    rotation_matrix,
)
from .linalg import AntiLinearMap, nullspace, stack_norm
from .reps import HalfInt, RepGenerators, pauli_matrices, rep_generators

__all__ = [
    "THETA",
    "charge_conjugation",
    "Cx2Basis",
    "ElkoBasis",
    "elko_pair",
    "elko_basis",
    "g_operator",
    "schur_conditions",
    "schur_condition_family",
    "rotation_commutant_residual",
    "nogo_monte_carlo",
    "antilinear_rest_map",
    "antilinear_family",
    "antilinear_kinematic_solutions",
    "AntilinearSolutionSpace",
    "helicity_spinors",
    "helicity_g",
    "helicity_origin_discontinuity",
]

# Wigner time-reversal matrix: Theta^2 = -I and Theta J Theta^-1 = -conj(J)
# for the spin-1/2 generators.
THETA = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


def charge_conjugation() -> AntiLinearMap:
    """C = offdiag(i Theta, -i Theta) o K; anti-linear with C^2 = I."""
    Z = np.zeros((2, 2), dtype=complex)
    return AntiLinearMap(np.block([[Z, 1j * THETA], [-1j * THETA, Z]]))


def _mul(x, y) -> np.ndarray:
    """x * y for complex arrays, entry by entry, in explicit real arithmetic.

    This rounds as one Python or numpy complex scalar product does; numpy's
    vectorised complex multiply can differ in the last bit. An overflow gives
    inf or nan; callers silence the numpy warnings and check finiteness.
    """
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    re = xr * yr - xi * yi
    # filled part by part: 1j * im would turn an infinite im into a nan real part
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = xr * yi + xi * yr
    return out


def _scalar_or_stack(x):
    """A 0-d result as a Python scalar, a stack as it is."""
    return x.item() if x.ndim == 0 else x


@dataclass(frozen=True)
class Cx2Basis:
    """A pair u, v in C^2 with finite entries, or a stack of pairs (u and v of
    shape (..., 2)); a genuine basis when det [u v] != 0.

    The functions below take a stack and evaluate every pair in one call;
    one pair is the stack with no leading axis, and each entry of a stacked
    result equals its single call bit for bit.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        if u.shape != v.shape or u.shape[-1:] != (2,):
            raise ValueError(f"u and v must be pairs of shape (..., 2), got {u.shape} and {v.shape}")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("u and v must have finite entries")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def _det(self) -> np.ndarray:
        a, b = self.u[..., 0], self.u[..., 1]
        c, d = self.v[..., 0], self.v[..., 1]
        with np.errstate(over="ignore", invalid="ignore"):
            return _mul(a, d) - _mul(b, c)

    @property
    def det(self) -> complex | np.ndarray:
        """det of the column matrix [u v] = a d - b c, rounded as Python
        complex arithmetic rounds it: an overflow gives inf or nan, not a
        numpy warning."""
        return _scalar_or_stack(self._det())

    @property
    def abs_det(self) -> float | np.ndarray:
        """|det [u v]| as Python's abs of the complex det (np.hypot of its
        parts), with inf where the modulus overflows."""
        return _scalar_or_stack(_modulus(self._det()))

    def require_nondegenerate(self):
        """Raise unless |det [u v]| is finite and > 1e-10 (for every pair)."""
        _require_nondegenerate(self._det())


def _modulus(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.hypot(z.real, z.imag)


def _require_nondegenerate(det: np.ndarray) -> None:
    size = _modulus(det)
    bad = ~np.isfinite(size)
    if bad.any():
        raise ValueError(f"|det [u v]| is not finite (det = {complex(det[bad].flat[0])}); rescale u and v")
    low = size <= 1e-10
    if low.any():
        raise ValueError(f"u, v are degenerate: |det| = {size[low].flat[0]:.3e}")


@dataclass(frozen=True)
class ElkoBasis:
    """The four charge-conjugation eigenspinors built from a C^2 pair, or a
    stack of them (..., 4): C-eigenvalue +1 on u_plus/v_plus, -1 on
    u_minus/v_minus."""

    u_plus: np.ndarray
    u_minus: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray

    def stack(self) -> np.ndarray:
        """Columns ordered (u+, v+, u-, v-), matching diag(1, 1, -1, -1)."""
        return np.stack([self.u_plus, self.v_plus, self.u_minus, self.v_minus], axis=-1)


def elko_pair(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(+-i Theta conj(u), u) stacked as 4-spinors, for u of shape (..., 2);
    the map u -> output is non-linear in u (it involves conj(u))."""
    u = np.asarray(u, dtype=complex)
    top = np.conj(u) @ THETA.T  # Theta conj(u) for every u of the stack
    return np.concatenate([1j * top, u], axis=-1), np.concatenate([-1j * top, u], axis=-1)


def elko_basis(basis: Cx2Basis) -> ElkoBasis:
    basis.require_nondegenerate()
    up, um = elko_pair(basis.u)
    vp, vm = elko_pair(basis.v)
    return ElkoBasis(u_plus=up, u_minus=um, v_plus=vp, v_minus=vm)


# the non-zero entries of G(u, v), one column each: G[row, col] is
# i (x conj(y) - x' conj(y')) over det [u v] in the upper block and over
# conj(det) in the lower one, with (a, b, c, d) = (u, v) numbered 0..3
_G_ROWS = (0, 0, 1, 1, 2, 2, 3, 3)
_G_COLS = (2, 3, 2, 3, 0, 1, 0, 1)
_G_UPPER = (True,) * 4 + (False,) * 4
_G_X = (1, 2, 3, 0, 2, 2, 3, 3)  # b c d a c c d d
_G_Y = (3, 1, 0, 2, 0, 1, 0, 1)  # d b a c a b a b
_G_X2 = (3, 0, 1, 2, 0, 0, 1, 1)  # d a b c a a b b
_G_Y2 = (1, 3, 2, 0, 2, 3, 2, 3)  # b d c a c d c d


def g_operator(basis: Cx2Basis) -> np.ndarray:
    """The unique linear operator with eigenvalue +1 on u_plus/v_plus and -1 on
    u_minus/v_minus, i.e. diag(1, 1, -1, -1) in the Elko basis; (..., 4, 4)
    for a stack of pairs.

    Closed form in u = (a, b), v = (c, d); every entry is i times a difference
    x - conj(x) over det [u v] (or its conjugate in the lower block), rounded
    as the numpy complex scalar formula rounds it.
    """
    det = basis._det()
    _require_nondegenerate(det)
    abcd = np.concatenate([basis.u, basis.v], axis=-1)
    x, y, x2, y2 = (abcd[..., k] for k in (_G_X, _G_Y, _G_X2, _G_Y2))
    den = np.where(_G_UPPER, det[..., None], np.conj(det)[..., None])
    G = np.zeros(abcd.shape[:-1] + (4, 4), dtype=complex)
    # with a finite det the entries can still overflow (entries near 1e154)
    with np.errstate(over="ignore", invalid="ignore"):
        G[..., _G_ROWS, _G_COLS] = _mul(np.complex128(1j), _mul(x, np.conj(y)) - _mul(x2, np.conj(y2))) / den
    if not np.isfinite(G).all():
        raise ValueError("G(u, v) is not finite in double precision; rescale u and v")
    return G


def schur_conditions(basis: Cx2Basis) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(r1, r2) = (|a conj(d) - c conj(b)|, |Im(a conj(c)) - Im(b conj(d))|),
    two arrays for a stack of pairs.

    Both vanish exactly when G(u, v) commutes with every rotation. Computed in
    explicit real arithmetic that rounds as Python complex arithmetic does,
    moduli by np.hypot, so an overflow gives inf or nan rather than a numpy
    warning; raises ValueError unless all are finite.
    """
    a, b = basis.u[..., 0], basis.u[..., 1]
    c, d = basis.v[..., 0], basis.v[..., 1]
    with np.errstate(over="ignore", invalid="ignore"):
        r1 = _modulus(_mul(a, np.conj(d)) - _mul(c, np.conj(b)))
        r2 = np.abs(_mul(a, np.conj(c)).imag - _mul(b, np.conj(d)).imag)
    bad = ~(np.isfinite(r1) & np.isfinite(r2))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        raise ValueError(
            f"Schur conditions are not finite (r1 = {r1.flat[k]}, r2 = {r2.flat[k]}); rescale u and v"
        )
    return _scalar_or_stack(r1), _scalar_or_stack(r2)


def schur_condition_family(lam, b, d) -> Cx2Basis:
    """The first Schur condition solved exactly: a = lam conj(b), c = lam conj(d)
    (arrays of lam, b, d give the stack of pairs).

    If additionally Im(b conj(d)) = 0 the second condition holds too, and then
    det [u v] = 0: the pair degenerates, which is the no-go.
    """
    lam, b, d = (np.asarray(x, dtype=complex) for x in (lam, b, d))
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.stack(np.broadcast_arrays(_mul(lam, np.conj(b)), b), axis=-1)
        v = np.stack(np.broadcast_arrays(_mul(lam, np.conj(d)), d), axis=-1)
    return Cx2Basis(u=u, v=v)


def rotation_commutant_residual(G: np.ndarray, samples: int = 20, seed: int = 0) -> float | np.ndarray:
    """max over random rotations R of ||[G, D(R)]||_F / ||G||_F with D the
    spin-1/2 rotation representative diag(exp(i sigma.theta/2), same); one
    residual per matrix of a stack (..., 4, 4)."""
    G = np.asarray(G)
    scale = stack_norm(G, 2)
    worst = np.zeros(G.shape[:-2])
    # integer keys only: with a None or Generator seed the cached set would
    # not be the fresh draw the seed asks for
    D = _seeded_rotations(operator.index(samples), operator.index(seed))
    # one rotation at a time over the whole stack: a (stack, rotation)
    # product would hold samples times the stack in memory
    for Dk in D:
        worst = np.maximum(worst, stack_norm(G @ Dk - Dk @ G, 2) / scale)
    return _scalar_or_stack(worst)


@lru_cache(maxsize=8)
def _seeded_rotations(samples: int, seed: int) -> np.ndarray:
    """The rotation representatives of rotation_commutant_residual as one
    read-only (samples, 4, 4) stack, drawn once per (samples, seed)."""
    theta = _random_vectors(np.random.default_rng(seed), np.full(samples, np.pi))
    D = rotation_matrix(rep_generators(HalfInt(1)), theta)
    D.flags.writeable = False
    return D


# candidates per array pass of the no-go sweep; bounds its working set
_NOGO_CHUNK = 1024


def nogo_monte_carlo(samples: int = 10_000, seed: int = 20240811, threshold: float = 0.01) -> dict:
    """Sweep random unit-norm pairs with |det| >= 0.1 and record the smallest
    max(r1, r2) seen; the no-go predicts it stays above threshold.

    The threshold is empirical (from the observed distribution at this seed),
    not a theorem constant; it is recorded in the report alongside the seed
    and the |det| floor.

    Candidate k is z = x[k, 0] + i x[k, 1] for x = normal(size=(n, 2, 4)),
    the stream of one normal(4) + 1j*normal(4) per candidate, with u = z[:2]
    and v = z[2:] normalised. The sweep is array code that rounds as the
    per-candidate scalar path does (Cx2Basis, |det|, schur_conditions):
    norms as np.linalg.norm forms them, complex products in explicit real
    arithmetic, moduli by np.hypot; numpy's vectorised complex multiply and
    complex abs round differently in the last bit.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    det_min = 0.1
    rng = np.random.default_rng(seed)
    floor = np.inf
    count = 0
    while count < samples:
        # never more candidates than still needed, so the accepted ones are
        # the first `samples` of the stream
        n = min(samples - count, _NOGO_CHUNK)
        # axes: candidate, re/im, u/v, component
        x = rng.normal(size=(n, 2, 4)).reshape(n, 2, 2, 2)
        # z[:2] / np.linalg.norm(z[:2]): the norm is sqrt(re.re + im.im), and
        # the division by it as a complex number is a multiply by 1 / norm
        inv = 1.0 / np.sqrt(np.vecdot(x[:, 0], x[:, 0]) + np.vecdot(x[:, 1], x[:, 1]))
        w = x * inv[:, None, :, None]
        (ar, br), (cr, dr) = w[:, 0].transpose(1, 2, 0)
        (ai, bi), (ci, di) = w[:, 1].transpose(1, 2, 0)
        det = np.hypot((ar * dr - ai * di) - (br * cr - bi * ci), (ar * di + ai * dr) - (br * ci + bi * cr))
        keep = det >= det_min
        if not keep.any():
            continue
        count += int(keep.sum())
        # r1 = |a conj(d) - c conj(b)|, r2 = |Im(a conj(c)) - Im(b conj(d))|
        r1 = np.hypot((ar * dr + ai * di) - (cr * br + ci * bi), (ai * dr - ar * di) - (ci * br - cr * bi))
        r2 = np.abs((ai * cr - ar * ci) - (bi * dr - br * di))
        floor = min(floor, float(np.maximum(r1, r2)[keep].min()))
    return {
        "samples": samples,
        "seed": seed,
        "det_min": det_min,
        "threshold": threshold,
        "min_max_r": float(floor),
        "pass": bool(floor > threshold),
    }


def _antilinear_rest(a, b) -> np.ndarray:
    """diag(a Theta, b Theta), or the stack of them for arrays a, b that
    broadcast; refused for a zero or non-finite scale, or a norm of the matrix
    or of its anti-linear square that overflows."""
    a, b = _family_scales(a, "a"), _family_scales(b, "b")
    rest = np.zeros(np.broadcast_shapes(a.shape, b.shape) + (4, 4), dtype=complex)
    rest[..., :2, :2] = a[..., None, None] * THETA
    rest[..., 2:, 2:] = b[..., None, None] * THETA
    _check_rest_norms(rest, antilinear=True)
    return rest


def antilinear_rest_map(a: complex, b: complex) -> AntiLinearMap:
    """The rest-frame anti-linear family diag(a Theta, b Theta) o K."""
    return AntiLinearMap(_antilinear_rest(a, b))


def antilinear_family(rep: RepGenerators, a, b) -> KinematicOperatorFamily:
    """The anti-linear candidate family; satisfies the anticommutation
    condition but its square is -diag(|a|^2 I, |b|^2 I), never the identity.
    Arrays a, b give the stack of those families."""
    if rep.j != HalfInt(1):
        raise ValueError("the anti-linear family is a spin-1/2 construction")
    return KinematicOperatorFamily(rep=rep, rest_matrix=_antilinear_rest(a, b), antilinear=True)


@dataclass(frozen=True)
class AntilinearSolutionSpace:
    """Solution space of the anti-linear anticommutation condition."""

    basis: tuple[AntiLinearMap, ...]
    dimension: int
    singular_values: np.ndarray
    span_residual: float


def antilinear_kinematic_solutions(rep: RepGenerators, tol: float = 1e-10) -> AntilinearSolutionSpace:
    """Solve {M o K anticommutes with each boost generator} over M.

    For an anti-linear map the conjugation flips the i in exp(i K.phi), so the
    matrix condition is K_a M - M conj(K_a) = 0 for each a. The solution space
    is exactly 2-complex-dimensional, spanned by diag(Theta, 0) o K and
    diag(0, Theta) o K; the span residual against that pair is reported.
    """
    if rep.j != HalfInt(1):
        raise ValueError("the classification is stated for spin 1/2")
    n = rep.dim
    I = np.eye(n, dtype=complex)
    rows = []
    for Ka in rep.K:
        # row-major vec: vec(Ka M) = (Ka kron I) vec(M), vec(M Kc) = (I kron Kc^T) vec(M)
        rows.append(np.kron(Ka, I) - np.kron(I, np.conj(Ka).T))
    system = np.vstack(rows)
    _, sv, _ = np.linalg.svd(system)
    ns = nullspace(system, tol=tol)
    dim = ns.shape[1]

    span_residual = 0.0
    Z = np.zeros((2, 2), dtype=complex)
    for block in (np.block([[THETA, Z], [Z, Z]]), np.block([[Z, Z], [Z, THETA]])):
        vec = block.reshape(-1)
        proj = ns @ (ns.conj().T @ vec)
        span_residual = max(span_residual, float(np.linalg.norm(proj - vec) / np.linalg.norm(vec)))

    maps = tuple(AntiLinearMap(ns[:, k].reshape(n, n)) for k in range(dim))
    return AntilinearSolutionSpace(
        basis=maps, dimension=dim, singular_values=sv, span_residual=span_residual
    )


# ---------------------------------------------------------------------------
# Helicity-based G and its direction dependence at the origin.

# Phase references for the +/- helicity eigenvectors. Any single ray-based
# phase rule makes G(-n) = G(n) exactly (the two helicity rays swap under
# n -> -n and G is swap-invariant), and real references collapse the whole
# x-z plane; two generic references keep the directional limits distinct.
_REF_PLUS = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
_REF_MINUS = np.array([2.0, 1.0], dtype=complex) / np.sqrt(5.0)


def _fix_phase(w: np.ndarray, ref: np.ndarray) -> np.ndarray:
    overlap = np.vdot(ref, w)
    if abs(overlap) < 1e-12:
        # fallback: largest-magnitude component real positive
        overlap = w[int(np.argmax(np.abs(w)))]
    return w * (np.conj(overlap) / abs(overlap))


def helicity_spinors(p_vec) -> tuple[np.ndarray, np.ndarray]:
    """(+1, -1) helicity eigenvectors of sigma.p-hat with deterministic phases.

    The eigenvectors depend only on the direction of p (any |p| > 0 gives the
    same pair), which is what makes the origin limit direction-dependent.
    """
    p = np.asarray(p_vec, dtype=float).reshape(3)
    pn = np.linalg.norm(p)
    if pn == 0.0 or not np.all(np.isfinite(p)):
        raise ValueError("helicity needs a non-zero finite momentum direction")
    n = p / pn
    sx, sy, sz = pauli_matrices()
    H = sx * n[0] + sy * n[1] + sz * n[2]
    _, U = np.linalg.eigh(H)  # eigenvalues ascending: (-1, +1)
    return _fix_phase(U[:, 1], _REF_PLUS), _fix_phase(U[:, 0], _REF_MINUS)


def helicity_g(p_vec) -> np.ndarray:
    """G built from the helicity eigenvectors at momentum p (direction only)."""
    u, v = helicity_spinors(p_vec)
    return g_operator(Cx2Basis(u=u, v=v))


def helicity_origin_discontinuity(
    mass: float,
    epsilons: tuple[float, float] = (1e-3, 1e-6),
    directions: tuple = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, -1.0)),
) -> dict:
    """Compare helicity-based G at momenta eps*n for several directions n.

    Along a fixed ray G is Cauchy as eps -> 0 (it depends on the direction
    only), while the limits along different rays stay a finite Frobenius
    distance apart: the operator has no limit at the origin. The mass is
    validated and reported; G itself is mass-independent.
    """
    # one mass, held to the mass rule as the mass of a particle at rest
    mass = float(FourMomentum(mass, (0.0, 0.0, 0.0)).m)
    eps_large, eps_small = max(epsilons), min(epsilons)
    dirs = [np.asarray(d, dtype=float) for d in directions]
    # helicity_g at eps_large * n and eps_small * n for every n, in one call
    spinors = [helicity_spinors(eps * n) for n in dirs for eps in (eps_large, eps_small)]
    u, v = (np.reshape([pair[k] for pair in spinors], (-1, 2)) for k in (0, 1))
    G = g_operator(Cx2Basis(u=u, v=v)).reshape(len(dirs), 2, 4, 4)
    ray_cauchy = {}
    limits = {}
    for n, (G_large, G_small) in zip(dirs, G):
        key = ",".join(f"{x:g}" for x in n)
        ray_cauchy[key] = float(np.linalg.norm(G_large - G_small))
        limits[key] = G_small
    keys = list(limits)
    pairwise = {}
    for i in range(len(keys)):
        for k in range(i + 1, len(keys)):
            pairwise[f"({keys[i]}) vs ({keys[k]})"] = float(
                np.linalg.norm(limits[keys[i]] - limits[keys[k]])
            )
    return {
        "mass": mass,
        "epsilons": [float(eps_large), float(eps_small)],
        "ray_cauchy": ray_cauchy,
        "pairwise_distance": pairwise,
        "limits": limits,
    }
