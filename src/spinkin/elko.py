"""Charge conjugation, Elko eigenspinor bases, the basis-dependent G operator,
the Schur rotation-invariance conditions, and numerical certification of the
spin-1/2 no-go results (no anti-linear fully kinematic operator; no rotation-
invariant G from a genuine basis; direction dependence at the origin).
Every chiral block here, C's included, is a RepGenerators.lift of Theta, and
every function of a C^2 pair reads one real-arithmetic kernel, _pair_kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import KinematicOperatorFamily, _block_family, _family_scales
from .linalg import AntiLinearMap, _scalar_or_stack, nullspace, stack_norm
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
    "antilinear_family",
    "antilinear_kinematic_solutions",
    "helicity_spinors",
    "helicity_origin_discontinuity",
]

# Wigner time-reversal matrix: Theta^2 = -I and Theta J Theta^-1 = -conj(J)
# for the spin-1/2 generators.
THETA = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
THETA.flags.writeable = False


def charge_conjugation() -> AntiLinearMap:
    """C = offdiag(i Theta, -i Theta) o K; anti-linear with C^2 = I."""
    return AntiLinearMap(rep_generators(HalfInt(1)).lift(1j * THETA, -1j * THETA, swap=True))


def _complex(re, im) -> np.ndarray:
    """re + i im, filled part by part: 1j * im would turn an infinite im into a nan real part."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


@dataclass(frozen=True)
class Cx2Basis:
    """A pair u, v in C^2 with finite entries, or a stack of pairs (u and v of
    shape (..., 2)); a genuine basis when det [u v] != 0.

    The functions below take a stack and evaluate every pair in one call;
    one pair is the stack with no leading axis, and each entry of a stacked
    result equals its single call bit for bit. The eight real parts of
    u = (a, b), v = (c, d) are laid out once, here, as the private read-only
    array _parts of shape (8, ...): re a, re b, re c, re d, im a, im b,
    im c, im d. det, abs_det, the nondegeneracy check, g_operator and
    schur_conditions all read them through _pair_kernel.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        if u.shape != v.shape or u.shape[-1:] != (2,):
            raise ValueError(f"u and v must be pairs of shape (..., 2), got {u.shape} and {v.shape}")
        abcd = np.concatenate((u, v), axis=-1).reshape(-1, 4)
        parts = np.concatenate((abcd.real.T, abcd.imag.T)).reshape((8,) + u.shape[:-1])
        if not np.isfinite(parts).all():
            raise ValueError("u and v must have finite entries")
        parts.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "_parts", parts)

    def _det(self) -> np.ndarray:
        return _complex(*_pair_kernel(self._parts)[:2])

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


def _pair_kernel(parts) -> tuple:
    """(re det, im det, re w, im w, s_ac, s_bd) of every pair u = (a, b),
    v = (c, d) whose real parts are the rows of parts, laid out as in
    Cx2Basis: det = a d - b c, w = a conj(d) - c conj(b), s_ac = Im(a conj(c))
    and s_bd = Im(b conj(d)). The Schur conditions are r1 = |w| and
    r2 = |s_ac - s_bd| (_schur_moduli), and G(u, v) is read off all four
    (_g_numerators).

    Each product is written out as Python complex arithmetic rounds it, so
    one pair rounds as Python does and a stack as its pairs. An overflow
    gives inf or nan with no numpy warning; callers judge finiteness.
    """
    ar, br, cr, dr, ai, bi, ci, di = parts
    with np.errstate(over="ignore", invalid="ignore"):
        det = (ar * dr - ai * di) - (br * cr - bi * ci), (ar * di + ai * dr) - (br * ci + bi * cr)
        w = (ar * dr + ai * di) - (cr * br + ci * bi), (ai * dr - ar * di) - (ci * br - cr * bi)
        return (*det, *w, ai * cr - ar * ci, bi * dr - br * di)


def _schur_moduli(w_re, w_im, s_ac, s_bd) -> tuple:
    """(r1, r2) = (|w|, |s_ac - s_bd|) of _pair_kernel's quantities; an overflow gives inf or nan, no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.hypot(w_re, w_im), np.abs(s_ac - s_bd)


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


def _g_numerators(w_re, w_im, s_ac, s_bd) -> tuple:
    """det G[:2, 2:] = [[-2 s_bd, -i w], [i conj(w), -2 s_ac]] and
    conj(det) G[2:, :2] = [[2 s_ac, -i w], [i conj(w), 2 s_bd]] from
    _pair_kernel's quantities, as the real and the imaginary part of each
    entry in turn, row by row. A block commutes with the Pauli matrices
    exactly when it is a multiple of the identity: when r1 = |w| and
    r2 = |s_ac - s_bd| vanish, the Schur conditions."""
    upper = (-2 * s_bd, 0, w_im, -w_re, w_im, w_re, -2 * s_ac, 0)
    return upper + (2 * s_ac, 0, w_im, -w_re, w_im, w_re, 2 * s_bd, 0)


def g_operator(basis: Cx2Basis) -> np.ndarray:
    """The unique linear operator with eigenvalue +1 on u_plus/v_plus and -1 on
    u_minus/v_minus, i.e. diag(1, 1, -1, -1) in the Elko basis; (..., 4, 4)
    for a stack of pairs.

    Its off-diagonal blocks are _g_numerators over det [u v] and conj(det)
    in numpy complex division, its diagonal blocks zero: each entry equals the
    numpy complex scalar closed form in value, up to the sign of a zero.
    """
    det_re, det_im, *schur = _pair_kernel(basis._parts)
    det = _complex(det_re, det_im)
    _require_nondegenerate(det)
    parts = np.zeros(det.shape + (16,))  # re and im interleaved: the last axis views as complex
    # with a finite det the entries can still overflow (entries near 1e154)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, x in enumerate(_g_numerators(*schur)):
            parts[..., k] = x
        den = np.stack([det, np.conj(det)], axis=-1)[..., None, None]
        blocks = parts.view(complex).reshape(det.shape + (2, 2, 2)) / den
    G = np.zeros(det.shape + (4, 4), dtype=complex)
    G[..., :2, 2:], G[..., 2:, :2] = blocks[..., 0, :, :], blocks[..., 1, :, :]
    if not np.isfinite(G).all():
        raise ValueError("G(u, v) is not finite in double precision; rescale u and v")
    return G


def schur_conditions(basis: Cx2Basis) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(r1, r2) = (|a conj(d) - c conj(b)|, |Im(a conj(c)) - Im(b conj(d))|),
    two arrays for a stack of pairs.

    Both vanish exactly when G(u, v) commutes with every rotation:
    r1 = |det G[0, 3]| and r2 = |det (G[0, 2] - G[1, 3])| / 2. Formed by
    _schur_moduli from _pair_kernel, which rounds as Python complex
    arithmetic does, so an overflow gives inf or nan rather than a numpy
    warning; raises ValueError unless all are finite.
    """
    r1, r2 = _schur_moduli(*_pair_kernel(basis._parts)[2:])
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
    lr, li = lam.real, lam.imag
    # lam conj(y) on real parts, rounded as _pair_kernel rounds its products
    with np.errstate(over="ignore", invalid="ignore"):
        a, c = (_complex(lr * y.real + li * y.imag, li * y.real - lr * y.imag) for y in (b, d))
    return Cx2Basis(u=np.stack(np.broadcast_arrays(a, b), axis=-1), v=np.stack(np.broadcast_arrays(c, d), axis=-1))


def _signed_permutations(generators) -> tuple[np.ndarray, ...]:
    """(col, col_value, row, row_value) of a stack (3, n, n) of matrices
    with one entry per row and per column, each of shape (3, n*n) over the
    flattened n x n matrix: M J_a = M[..., col[a]] * col_value[a] and J_a M =
    M[..., row[a]] * row_value[a] for M flattened to n*n, read-only."""
    J = np.array(generators)
    n = J.shape[-1]
    r, c = np.divmod(np.arange(n * n), n)
    # the one non-zero row of each column, and column of each row
    k_col, k_row = np.abs(J).argmax(axis=-2)[:, c], np.abs(J).argmax(axis=-1)[:, r]
    a = np.arange(len(J))[:, None]
    out = (r * n + k_col, J[a, k_col, c], k_row * n + c, J[a, r, k_row])
    for x in out:
        x.flags.writeable = False
    return out


# J_a = diag(sigma_a/2, sigma_a/2) of spin 1/2 as the signed, scaled
# permutations it is: a product with it is a gather times 0.5 or +-0.5i
_J_COL, _J_COL_VALUE, _J_ROW, _J_ROW_VALUE = _signed_permutations(rep_generators(HalfInt(1)).J)


def rotation_commutant_residual(G: np.ndarray) -> float | np.ndarray:
    """max over the spin-1/2 rotation generators J_a = diag(sigma_a/2,
    sigma_a/2) of ||[G, J_a]||_F / ||G||_F; one residual per matrix of a
    stack (..., 4, 4), each G finite and non-zero.

    SU(2) is connected, so G commutes with every rotation representative
    exactly when it commutes with the three generators. J_a has one entry
    per row and per column, so each entry of G J_a and J_a G is one entry
    of G times 1/2 or +-i/2, gathered by index: a stacked entry equals its
    single call, and the explicit matrix product, bit for bit. The ratio
    is scale-free and formed on G / max|G| for each matrix, so no finite G
    overflows its norm.
    """
    G = np.asarray(G)
    if G.shape[-2:] != (4, 4):
        raise ValueError(f"G must have shape (..., 4, 4), got {G.shape}")
    scale = np.abs(G).max(axis=(-2, -1), keepdims=True)
    if not ((scale > 0.0) & (scale < np.inf)).all():  # a nan fails both
        raise ValueError("G must be finite and non-zero")
    G = G / scale
    # the three commutators, each flattened: (..., 3, 16)
    flat = G.reshape(G.shape[:-2] + (16,))
    comm = flat[..., _J_COL] * _J_COL_VALUE - flat[..., _J_ROW] * _J_ROW_VALUE
    return _scalar_or_stack(stack_norm(comm, 1).max(axis=-1) / stack_norm(G, 2))


def _complex_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4) draws z, row k as one normal(4) + 1j * normal(4) call pair
    draws it."""
    x = rng.normal(size=(n, 2, 4))
    return x[:, 0] + 1j * x[:, 1]


# pairs per array pass of the no-go sweep; bounds its working set
_NOGO_CHUNK = 1024
# the roundoff allowed on the no-go bound for a unit pair
_NOGO_TOL = 1e-12


def _unit_parts(rng: np.random.Generator, n: int) -> np.ndarray:
    """The real parts (8, n), laid out as Cx2Basis lays them out, of n unit
    pairs. Pair k is one normal(8) draw, the words of row k of
    _complex_normals: re a, re b, re c, re d, im a, im b, im c, im d.

    u and v are each scaled by the reciprocal of the norm that stack_norm
    forms (the dot of the real parts plus the dot of the imaginary ones), so
    each part rounds as the complex division by that norm does. The sums of
    four squared normal draws stay in the normal float range; outside it
    stack_norm would form the norm again.
    """
    x = rng.normal(size=(n, 8)).reshape(n, 2, 2, 2)  # pair, real or imaginary part, u or v, entry
    sq = np.vecdot(x, x)
    scale = 1.0 / np.sqrt(sq[:, 0] + sq[:, 1])
    parts = np.empty((2, 2, 2, n))
    np.multiply(x.transpose(1, 2, 3, 0), scale.T[:, None, :], out=parts)
    return parts.reshape(8, n)


def _unit_pairs(rng: np.random.Generator, n: int) -> Cx2Basis:
    """The n unit pairs of _unit_parts as a Cx2Basis stack: the pairs the
    no-go sweep draws from the same stream."""
    parts = _unit_parts(rng, n)
    z = _complex(parts[:4].T, parts[4:].T)
    return Cx2Basis(u=z[:, :2], v=z[:, 2:])


def nogo_monte_carlo(*, samples: int, seed: int) -> dict:
    """Check sqrt(2) max(r1, r2) >= |det [u v]| on `samples` random unit
    pairs, and report the smallest ratio and difference of the two sides.

    The bound, sharp at u = (1, 1), v = (i, 2 - i), follows from the identity
    r1^2 + r2^2 = |ad - bc|^2 + (Im a conj(c) + Im b conj(d))^2 in u = (a, b),
    v = (c, d): both conditions force det = 0, the no-go. On unit pairs one
    absolute allowance, _NOGO_TOL, bounds the roundoff of both sides.

    The pairs are the stream of one normal(4) + 1j*normal(4) per pair, with
    u = z[:2] and v = z[2:] normalised, drawn at most 1024 at a time as their
    real parts (_unit_parts). det, r1 and r2 come from _pair_kernel on those
    parts, which every function of a pair reads, with no complex array and no
    Cx2Basis in between, so the report is that of the one-pair loop bit for
    bit.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    ratio = excess = np.inf
    for start in range(0, samples, _NOGO_CHUNK):
        det_re, det_im, *schur = _pair_kernel(_unit_parts(rng, min(samples - start, _NOGO_CHUNK)))
        r1, r2 = _schur_moduli(*schur)
        bound = np.sqrt(2.0) * np.maximum(r1, r2)
        det = np.hypot(det_re, det_im)
        # np.minimum keeps a nan that Python's min would drop
        ratio = float(np.minimum(ratio, (bound / det).min()))
        excess = float(np.minimum(excess, (bound - det).min()))
    return {
        "samples": samples,
        "seed": seed,
        "min_ratio": ratio,
        "min_excess": excess,
        "tol": _NOGO_TOL,
        "pass": bool(excess >= -_NOGO_TOL),
    }


def antilinear_family(rep: RepGenerators, a, b) -> KinematicOperatorFamily:
    """The anti-linear candidate family diag(a Theta, b Theta) o K; satisfies
    the anticommutation condition but its square is -diag(|a|^2 I, |b|^2 I),
    never the identity. Arrays a, b that broadcast give the stack of those
    families. Refused for a zero or non-finite scale, a norm that overflows
    and the tensor product."""
    if rep.j != HalfInt(1):
        raise ValueError("the anti-linear family is a spin-1/2 construction")
    return _block_family(rep, _family_scales(a, "a"), _family_scales(b, "b"), THETA, antilinear=True)


def antilinear_kinematic_solutions(rep: RepGenerators) -> dict:
    """Solve {M o K anticommutes with each boost generator} over M.

    For an anti-linear map the conjugation flips the i in exp(i K.phi), so the
    matrix condition is K_a M - M conj(K_a) = 0 for each a. The solution space
    is exactly 2-complex-dimensional, spanned by diag(Theta, 0) o K and
    diag(0, Theta) o K; the report is the dict of its `dimension` and of the
    `span_residual` against that pair.
    It is the nullspace of the stacked system, with singular values at most
    1e-10 times the largest counted as zero.
    """
    if rep.j != HalfInt(1) or rep.tensor:
        raise ValueError("the classification is stated for spin 1/2 on (j,0)+(0,j)")
    n = rep.dim
    I = np.eye(n, dtype=complex)
    rows = []
    for Ka in rep.K:
        # row-major vec: vec(Ka M) = (Ka kron I) vec(M), vec(M Kc) = (I kron Kc^T) vec(M)
        rows.append(np.kron(Ka, I) - np.kron(I, np.conj(Ka).T))
    ns = nullspace(np.vstack(rows))

    span_residual = 0.0
    Z = np.zeros((2, 2), dtype=complex)
    for block in (rep.lift(THETA, Z), rep.lift(Z, THETA)):
        vec = block.reshape(-1)
        proj = ns @ (ns.conj().T @ vec)
        # np.maximum keeps a nan, so that it fails the suite's gate
        span_residual = float(np.maximum(span_residual, stack_norm(proj - vec, 1) / stack_norm(vec, 1)))

    return {"dimension": ns.shape[1], "span_residual": span_residual}


# ---------------------------------------------------------------------------
# Helicity-based G and its direction dependence at the origin.

# Phase references for the +/- helicity eigenvectors. Any single ray-based
# phase rule makes G(-n) = G(n) exactly (the two helicity rays swap under
# n -> -n and G is swap-invariant), and real references collapse the whole
# x-z plane; two generic references keep the directional limits distinct.
_REF_PLUS = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
_REF_MINUS = np.array([2.0, 1.0], dtype=complex) / np.sqrt(5.0)
_REF_PLUS.flags.writeable = _REF_MINUS.flags.writeable = False


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
    p is divided by its largest |p_i| before its norm is taken, so no finite
    non-zero p overflows or underflows to a zero direction.
    """
    p = np.asarray(p_vec, dtype=float).reshape(3)
    scale = np.max(np.abs(p))
    if not 0.0 < scale < np.inf:
        raise ValueError("helicity needs a non-zero finite momentum direction")
    p = p / scale
    n = p / stack_norm(p, 1)
    sx, sy, sz = pauli_matrices()
    H = sx * n[0] + sy * n[1] + sz * n[2]
    _, U = np.linalg.eigh(H)  # eigenvalues ascending: (-1, +1)
    return _fix_phase(U[:, 1], _REF_PLUS), _fix_phase(U[:, 0], _REF_MINUS)


_ORIGIN_EPSILONS = (1e-3, 1e-6)
_ORIGIN_DIRECTIONS = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, -1.0))


def helicity_origin_discontinuity() -> dict:
    """Compare helicity-based G at momenta eps*n for eps = 1e-3 and 1e-6 and
    the directions n = +z, +x and -z.

    Along a fixed ray G is Cauchy as eps -> 0 (it depends on the direction
    only), while the limits along different rays stay a finite Frobenius
    distance apart: the operator has no limit at the origin. G depends on
    the direction alone, so no mass enters.
    """
    eps_large, eps_small = _ORIGIN_EPSILONS
    dirs = np.array(_ORIGIN_DIRECTIONS)
    # G from the helicity spinors at eps_large * n and eps_small * n for
    # every n, in one call
    spinors = [helicity_spinors(eps * n) for n in dirs for eps in (eps_large, eps_small)]
    u, v = (np.reshape([pair[k] for pair in spinors], (-1, 2)) for k in (0, 1))
    G = g_operator(Cx2Basis(u=u, v=v)).reshape(len(dirs), 2, 4, 4)
    ray_cauchy = {}
    limits = {}
    for n, (G_large, G_small) in zip(dirs, G):
        key = ",".join(f"{x:g}" for x in n)
        ray_cauchy[key] = float(stack_norm(G_large - G_small, 2))
        limits[key] = G_small
    keys = list(limits)
    pairwise = {}
    for i in range(len(keys)):
        for k in range(i + 1, len(keys)):
            pairwise[f"({keys[i]}) vs ({keys[k]})"] = float(stack_norm(limits[keys[i]] - limits[keys[k]], 2))
    return {
        "epsilons": [float(eps_large), float(eps_small)],
        "ray_cauchy": ray_cauchy,
        "pairwise_distance": pairwise,
        "limits": limits,
    }
