"""Residual suites behind `spinkin check`: every algebraic identity the library
claims, swept over seeded random inputs with explicit tolerances.

Each suite is fn(seed) and returns a plain dict (JSON-ready); run_all composes
them. One builder, _report, forms every suite's `max_residuals`, `tolerances`
and `pass` from its gates, each a value and its bound: an upper gate passes
at value <= bound and a lower one at value >= bound, so a nan fails either.
A suite's sample counts and thresholds are the module constants below. The
bound of every gate is the value printed under `tolerances`, and each count
the one printed under `samples`/`per_spin_samples`; the kinematic checker's
two draw counts and the four elko_nogo thresholds on their own line gate
unprinted. The sweep suites draw their seeded momenta (and Lorentz pairs)
first, then evaluate the whole sample in one stacked call per spin: all
spinors of one sign against one P(q), boosts and rotations as one pair stack
against one A(q), and a set of operator families as one family stack.
"""

from __future__ import annotations

import time

import numpy as np

from . import decomposition as dec
from . import elko
from .dirac import boosted_spinors, dirac_operator, rest_spinors
from .higherspin import CERTIFICATE_TOL, field_equation_residual, involution_certificate, swap_operator_at
from .kinematics import (
    FourMomentum,
    covariance_residual,
    is_fully_kinematic,
    parity_family,
    parity_operator,
    random_transform_pairs,
    sample_momenta,
    scaled_swap_family,
    stack_pairs,
)
from .linalg import anticommutator, stack_norm
from .reps import HalfInt, rep_generators, tensor_rep_generators

__all__ = ["run_all", "SUITES"]

# one line per suite: its sample counts, then its thresholds
_DIRAC_SAMPLES, _DIRAC_TOL = 1000, 1e-10
_INVOLUTION_PER_SPIN, _INVOLUTION_TOL = 100, CERTIFICATE_TOL
_FIELD_PER_SPIN, _FIELD_TOL = 25, 1e-9
_COVARIANCE_PER_SPIN, _COVARIANCE_TOL = 100, 1e-8
_KINEMATIC_PARITY_SAMPLES, _KINEMATIC_SWAP_SAMPLES, _KINEMATIC_TOL, _KINEMATIC_GAP_MIN = 25, 10, 1e-8, 1.0
_SPAN_TOL = 1e-10
_NOGO_MC_SAMPLES, _NOGO_DET_TOL, _NOGO_COMM_TOL = 10_000, 1e-10, 1e-12
# the exact-condition guard, the equivalence's commutant and condition thresholds, and the detection floor
_NOGO_EXACT_TOL, _EQUIVALENCE_COMM_TOL, _EQUIVALENCE_COND_TOL, _NOGO_DETECT_MIN = 1e-12, 1e-9, 1e-10, 1e-3
_G_SAMPLES, _G_TOL, _G_E1_E2_TOL = 100, 1e-10, 1e-14
_DECOMPOSITION_SAMPLES, _DECOMPOSITION_TOL = 100, 1e-9
_SWAP_PER_SPIN, _SWAP_SQUARE_TOL, _SWAP_ANTI_TOL, _SWAP_TOL = 50, 0.0, 1e-12, 1e-9
_ORIGIN_RAY_TOL, _ORIGIN_DISTANCE_MIN = 1e-6, 0.1


def _report(upper: dict, lower: dict | None = None, holds=(), **fields) -> dict:
    """A suite's report: `fields`, then its gates' `max_residuals` and
    `tolerances`, and `pass`.

    `upper` and `lower` map a gate's name to (value, bound). An upper gate
    passes at value <= bound and a lower one at value >= bound, so a nan
    fails either. The bound prints under `tolerances` and the value under
    `max_residuals`, unless the value is a tuple: each of its entries is
    judged, and the report prints them elsewhere. `holds` are the suite's
    other conditions, all of which must hold."""
    lower = lower or {}
    judged = [np.less_equal(v, b) for v, b in upper.values()] + [np.greater_equal(v, b) for v, b in lower.values()]
    gates = {**upper, **lower}
    return {
        **fields,
        "max_residuals": {k: v for k, (v, _) in gates.items() if not isinstance(v, tuple)},
        "tolerances": {k: b for k, (_, b) in gates.items()},
        "pass": bool(all(np.all(ok) for ok in judged) and all(holds)),
    }


def _fold(worst: float, residuals) -> float:
    """The larger of worst and every residual; a nan in either is the
    result, so that a nan residual fails its suite's `<=` gate."""
    return float(np.max(residuals, initial=worst))


def dirac_parity_suite(seed: int) -> dict:
    """||m P(q) - gamma.p||_F / ||gamma.p||_F over random on-shell momenta."""
    rep = rep_generators(HalfInt(1))
    momenta = sample_momenta(np.random.default_rng(seed), _DIRAC_SAMPLES)
    # m P(q) - gamma.p formed in one fresh stack: these stacks are the
    # largest arrays of a check all, and each copy adds to its peak memory.
    # P(q) itself is read-only, memoised on the momenta
    diff = parity_operator(rep, momenta) * momenta.m[:, None, None]
    slash = dirac_operator(momenta)
    diff -= slash
    r = stack_norm(diff, 2) / stack_norm(slash, 2)
    return _report({"identification": (float(r.max(initial=0.0)), _DIRAC_TOL)}, samples=_DIRAC_SAMPLES)


def involution_suite(seed: int) -> dict:
    """involution_certificate of P_j(q), j <= 2: ||P^2 - I||_F within the
    tolerance and both n+- = 2j+1. As |lam^2 - 1| <= ||P^2 - I||_2, each
    eigenvalue lies within about tol/2 of +-1; so the spectrum and
    det P = (-1)^(2j+1) follow with no eigensolver and no determinant."""
    rng = np.random.default_rng(seed)
    worst_sq = 0.0
    mult_ok = True
    for twice in (1, 2, 3, 4):
        j = HalfInt(twice)
        P = parity_operator(rep_generators(j), sample_momenta(rng, _INVOLUTION_PER_SPIN))
        cert = involution_certificate(P)
        worst_sq = _fold(worst_sq, cert["square_residual"])
        mult_ok = mult_ok and all(bool(np.all(n == j.block_dim)) for n in cert["multiplicities"].values())
    return _report(
        {"square": (worst_sq, _INVOLUTION_TOL)},
        holds=[mult_ok],
        per_spin_samples=_INVOLUTION_PER_SPIN,
        multiplicities_ok=mult_ok,
    )


def field_equation_suite(seed: int) -> dict:
    """Boosted u/v spinors solve their sign's field equation for j <= 2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for twice in (1, 2, 3, 4):
        j = HalfInt(twice)
        momenta = sample_momenta(rng, _FIELD_PER_SPIN)
        basis = boosted_spinors(j, momenta)
        for ws, sign in ((basis.u, +1), (basis.v, -1)):
            r = field_equation_residual(j, np.array(ws), momenta, sign)
            worst = _fold(worst, r)
    return _report({"field_equation": (worst, _FIELD_TOL)}, per_spin_samples=_FIELD_PER_SPIN)


def covariance_suite(seed: int) -> dict:
    """Parity-family covariance under random pure boosts and rotations, j <= 3/2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for twice in (1, 2, 3):
        rep = rep_generators(HalfInt(twice))
        fam = parity_family(rep)
        momenta = sample_momenta(rng, _COVARIANCE_PER_SPIN)
        pairs = stack_pairs(random_transform_pairs(rep, rng, _COVARIANCE_PER_SPIN))
        worst = _fold(worst, covariance_residual(fam, momenta, *pairs))
    return _report({"covariance": (worst, _COVARIANCE_TOL)}, per_spin_samples=_COVARIANCE_PER_SPIN)


def kinematic_checker_suite(seed: int) -> dict:
    """Definition-level checks: parity is fully kinematic, the off-diagonal
    scale family is for any a != 0, and the anti-linear family fails the
    involution condition by at least 1 on the |a|, |b| grid."""
    rng = np.random.default_rng(seed)
    rep_half = rep_generators(HalfInt(1))

    parity_ok = True
    for twice in (1, 2):
        rep = rep_generators(HalfInt(twice))
        report = is_fully_kinematic(
            parity_family(rep), samples=_KINEMATIC_PARITY_SAMPLES, tol=_KINEMATIC_TOL, seed=seed + twice
        )
        parity_ok = parity_ok and report["pass"]

    # ten scaled swaps, checked as one family stack on one draw of momenta
    # and pairs; row k of the draw is swap k's (|a|, arg a)
    magnitude, phase = rng.uniform((0.2, 0.0), (5.0, 2 * np.pi), size=(10, 2)).T
    swaps = scaled_swap_family(rep_half, magnitude * np.exp(1j * phase))
    report = is_fully_kinematic(swaps, samples=_KINEMATIC_SWAP_SAMPLES, tol=_KINEMATIC_TOL, seed=seed)
    swap_ok = report["pass"]

    # anti-linear grid: anticommutes but the square stays >= 1 away from I
    q = FourMomentum(1.0, (0.3, -0.2, 0.5))
    # row k of the phases is cell k = (|a|, |b|) of the grid in C order
    grid = np.logspace(-1, 1, 5)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(25, 2)))
    fam = elko.antilinear_family(rep_half, np.repeat(grid, 5) * phases[:, 0], np.tile(grid, 5) * phases[:, 1])
    anti = fam.anticommutator_residual()
    min_gap = float(stack_norm(fam.squared_at(q) - np.eye(4), 2).min())
    # the one bound of the three conditions: the checker judged parity and
    # the swaps at it, and the gate judges the anticommutator
    return _report(
        {"conditions": ((anti,), _KINEMATIC_TOL)},
        {"antilinear_square_gap_min": (min_gap, _KINEMATIC_GAP_MIN)},
        holds=[parity_ok, swap_ok],
        parity_fully_kinematic=bool(parity_ok),
        scaled_swap_fully_kinematic=bool(swap_ok),
        antilinear_anticommutes=bool(anti <= _KINEMATIC_TOL),
    )


def antilinear_solutions_suite(seed: int) -> dict:
    """The anti-linear anticommutation system has a 2-complex-dimensional
    solution space spanned by diag(Theta,0) o K and diag(0,Theta) o K."""
    space = elko.antilinear_kinematic_solutions(rep_generators(HalfInt(1)))
    gate = {"span": (space["span_residual"], _SPAN_TOL)}
    return _report(gate, holds=[space["dimension"] == 2], dimension=space["dimension"])


def elko_nogo_suite(seed: int) -> dict:
    """The Schur/no-go chain: random bases always violate a condition;
    exact-condition pairs are degenerate; commutant residual tracks the
    conditions in both directions.

    The random bases are elko.nogo_monte_carlo's sweep, gated by its own
    allowance constant in `elko` and printed under monte_carlo; the
    equivalence pairs are unit pairs drawn as that sweep draws them. The
    commutant is taken against the three rotation generators and draws
    nothing; on the r1-only and r2-only pairs it is exactly 1."""
    rng = np.random.default_rng(seed)
    mc = elko.nogo_monte_carlo(samples=_NOGO_MC_SAMPLES, seed=seed)

    # 100 exact-condition pairs, each drawn as lam, b (complex) and t: d = t b
    # keeps Im(b conj(d)) = 0, so both conditions hold and det must vanish
    x = rng.normal(size=(100, 5))
    lam = x[:, 0] + 1j * x[:, 1]
    b = x[:, 2] + 1j * x[:, 3]
    family = elko.schur_condition_family(lam, b, x[:, 4] * b)
    r1, r2 = elko.schur_conditions(family)
    # a pair off the conditions fails the suite; unlike a stop at that pair,
    # the stream has then moved past all 100 draws
    if not (np.maximum(r1, r2) <= _NOGO_EXACT_TOL).all():
        worst_det = np.inf
    else:
        worst_det = float(family.abs_det.max(initial=0.0))

    # both directions of the Schur equivalence, over 200 random unit pairs:
    # each pair commutes and meets the conditions, or does neither (a nan does neither)
    basis = elko._unit_pairs(rng, 200)
    cond = np.maximum(*elko.schur_conditions(basis))
    comm = elko.rotation_commutant_residual(elko.g_operator(basis))
    meets = (comm <= _EQUIVALENCE_COMM_TOL) & (cond <= _EQUIVALENCE_COND_TOL)
    equivalence_ok = bool(np.all(meets | ((comm > _EQUIVALENCE_COMM_TOL) & (cond > _EQUIVALENCE_COND_TOL))))
    # conditions-hold side, at the operator level: block-scalar matrices
    # (the Schur commutant) do commute with every rotation
    G = np.kron(elko._complex_normals(rng, 5).reshape(5, 2, 2), np.eye(2))
    scalar_comm = float(elko.rotation_commutant_residual(G).max())
    # conditions-fail side: r1-only and r2-only families are detected
    fam_r1 = elko.schur_condition_family(1.0, 1.0, 1j)  # r1 = 0, r2 = 2, det = 2i
    detect_r2 = elko.rotation_commutant_residual(elko.g_operator(fam_r1))
    fam_r2 = elko.Cx2Basis(u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]))  # r2 = 0, r1 = 1
    detect_r1 = elko.rotation_commutant_residual(elko.g_operator(fam_r2))

    return _report(
        {
            "constructed_family_det": (float(worst_det), _NOGO_DET_TOL),
            "block_scalar_commutant": (scalar_comm, _NOGO_COMM_TOL),
        },
        holds=[mc["pass"], equivalence_ok, detect_r1 >= _NOGO_DETECT_MIN, detect_r2 >= _NOGO_DETECT_MIN],
        monte_carlo=mc,
        schur_equivalence_ok=equivalence_ok,
        commutant_detects_r1=float(detect_r1),
        commutant_detects_r2=float(detect_r2),
    )


_G_E1_E2 = np.array([[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]], dtype=complex)
_G_E1_E2.flags.writeable = False


def g_operator_suite(seed: int) -> dict:
    """G(u,v)^2 = I and the four eigenvalue relations for random bases, the
    charge-conjugation eigenvalues C lambda = +-lambda of the same Elko
    spinors, and the u=e1, v=e2 case reproduces the derived matrix
    entrywise."""
    rng = np.random.default_rng(seed)
    z = np.empty((0, 4), dtype=complex)
    while len(z) < _G_SAMPLES:
        # never more candidates than still needed, so the accepted ones are
        # the first _G_SAMPLES of the stream and nothing is drawn past them
        new = elko._complex_normals(rng, _G_SAMPLES - len(z))
        z = np.concatenate([z, new[elko.Cx2Basis(u=new[:, :2], v=new[:, 2:]).abs_det >= 0.05]])
    basis = elko.Cx2Basis(u=z[:, :2], v=z[:, 2:])
    G = elko.g_operator(basis)
    eb = elko.elko_basis(basis)
    C = elko.charge_conjugation()
    worst = float(stack_norm(G @ G - np.eye(4), 2).max(initial=0.0))
    worst_c = 0.0
    for w, s in ((eb.u_plus, 1), (eb.u_minus, -1), (eb.v_plus, 1), (eb.v_minus, -1)):
        norm = stack_norm(w, 1)
        r = stack_norm((G @ w[..., None])[..., 0] - s * w, 1) / norm
        worst = _fold(worst, r)
        # the Elko spinors are the C eigenspinors: C w = s w
        worst_c = _fold(worst_c, stack_norm(C(w) - s * w, 1) / norm)
    explicit = float(
        np.max(np.abs(elko.g_operator(elko.Cx2Basis(u=np.array([1.0, 0]), v=np.array([0, 1.0]))) - _G_E1_E2))
    )
    return _report(
        {
            "relations": (worst, _G_TOL),
            "charge_conjugation": (worst_c, _G_TOL),
            "e1_e2_case": (explicit, _G_E1_E2_TOL),
        },
        samples=_G_SAMPLES,
    )


def decomposition_suite(seed: int) -> dict:
    """gamma.p = m K(q) Xi(q) for the canonical and helicity-Elko bases."""
    momenta = sample_momenta(np.random.default_rng(seed), _DECOMPOSITION_SAMPLES)
    gates = {}
    for name, basis in (
        ("canonical", rest_spinors(HalfInt(1), mass=momenta.m)),
        ("helicity", dec.elko_rest_basis(momenta.m)),
    ):
        worst = float(dec.decomposition_residual(basis, momenta).residual.max(initial=0.0))
        gates[name] = (worst, _DECOMPOSITION_TOL)
    return _report(gates, samples=_DECOMPOSITION_SAMPLES)


def tensor_swap_suite(seed: int) -> dict:
    """S^2 = I exactly, {S, K_a} = 0, and the boosted swap fixes the tensor
    image of every +1 parity eigenspinor."""
    rng = np.random.default_rng(seed)
    worst_alg = 0.0
    worst_int = 0.0
    exact_sq = 0.0
    for twice in (1, 2):
        j = HalfInt(twice)
        rep = tensor_rep_generators(j)
        S = rep.eta
        exact_sq = _fold(exact_sq, np.abs(S @ S - np.eye(rep.dim)))
        for Ka in rep.K:
            worst_alg = _fold(worst_alg, stack_norm(anticommutator(S, Ka), 2))
        d = j.block_dim
        momenta = sample_momenta(rng, _SWAP_PER_SPIN)
        A = swap_operator_at(j, momenta)
        for w in boosted_spinors(j, momenta).u:
            # psi_R kron psi_L for every momentum at once
            t_psi = (w[:, :d, None] * w[:, None, d:]).reshape(_SWAP_PER_SPIN, d * d)
            r = stack_norm((A @ t_psi[..., None])[..., 0] - t_psi, 1) / stack_norm(t_psi, 1)
            worst_int = _fold(worst_int, r)
    return _report(
        {
            "square_exact": (exact_sq, _SWAP_SQUARE_TOL),
            "anticommutator": (worst_alg, _SWAP_ANTI_TOL),
            "intertwining": (worst_int, _SWAP_TOL),
        },
        per_spin_samples=_SWAP_PER_SPIN,
    )


def origin_suite(seed: int) -> dict:
    """Helicity-based G: Cauchy along rays, direction-dependent at the
    origin. Deterministic, so the seed is unused."""
    report = elko.helicity_origin_discontinuity()
    ray_worst = np.max(list(report["ray_cauchy"].values()))
    pairwise = report["pairwise_distance"]
    distances = {"z_vs_x": pairwise["(0,0,1) vs (1,0,0)"], "z_vs_neg_z": pairwise["(0,0,1) vs (0,0,-1)"]}
    return _report(
        {"ray_cauchy": (float(ray_worst), _ORIGIN_RAY_TOL)},
        {"direction_distance_min": (tuple(distances.values()), _ORIGIN_DISTANCE_MIN)},
        distances=distances,
    )


SUITES = (
    ("dirac_parity", dirac_parity_suite),
    ("involution", involution_suite),
    ("field_equation", field_equation_suite),
    ("covariance", covariance_suite),
    ("kinematic_checker", kinematic_checker_suite),
    ("antilinear_solutions", antilinear_solutions_suite),
    ("elko_nogo", elko_nogo_suite),
    ("g_operator", g_operator_suite),
    ("decomposition", decomposition_suite),
    ("tensor_swap", tensor_swap_suite),
    ("origin", origin_suite),
)


def run_all(seed: int) -> tuple[dict, dict[str, float]]:
    """Run every suite with per-suite seeds derived from the given seed.

    Returns the report and, apart from it so that the report depends on the
    seed alone, each suite's wall time in ms.
    """
    suites = {}
    times_ms = {}
    for offset, (name, fn) in enumerate(SUITES):
        start = time.perf_counter()
        suites[name] = fn(seed + offset)
        times_ms[name] = (time.perf_counter() - start) * 1e3
    report = {
        "seed": seed,
        "suites": suites,
        "pass": bool(all(s["pass"] for s in suites.values())),
    }
    return report, times_ms
