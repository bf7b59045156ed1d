"""Residual suites behind `spinkin check`: every algebraic identity the library
claims, swept over seeded random inputs with explicit tolerances.

Each suite returns a plain dict (JSON-ready) with max residuals, the
tolerances applied, and a pass flag; run_all composes them. The sweep suites
draw their seeded momenta (and Lorentz pairs) first, then evaluate the whole
sample in one stacked call per spin: all spinors of one sign against one
P(q), boosts and rotations as one pair stack against one A(q), and a set of
operator families as one family stack.
"""

from __future__ import annotations

import time

import numpy as np

from . import decomposition as dec
from . import elko
from .dirac import boosted_spinors, dirac_operator, rest_spinors
from .higherspin import field_equation_residual, swap_operator_at
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


def dirac_parity_suite(seed: int, samples: int = 1000, tol: float = 1e-10) -> dict:
    """||m P(q) - gamma.p||_F / ||gamma.p||_F over random on-shell momenta."""
    rep = rep_generators(HalfInt(1))
    momenta = sample_momenta(np.random.default_rng(seed), samples)
    # m P(q) - gamma.p formed in place: these stacks are the largest arrays
    # of a check all, and each copy adds to its peak memory
    diff = parity_operator(rep, momenta)
    diff *= momenta.m[:, None, None]
    slash = dirac_operator(momenta)
    diff -= slash
    r = stack_norm(diff, 2) / stack_norm(slash, 2)
    worst = float(r.max(initial=0.0))
    return {
        "samples": samples,
        "max_residuals": {"identification": worst},
        "tolerances": {"identification": tol},
        "pass": bool(worst <= tol),
    }


def involution_suite(seed: int, per_spin: int = 100, tol: float = 1e-7) -> dict:
    """P_j(q)^2 = I, eigenvalues +-1 with multiplicities (2j+1, 2j+1), and a
    momentum-independent determinant, for j in {1/2, 1, 3/2, 2}."""
    rng = np.random.default_rng(seed)
    worst_sq = worst_ev = worst_det = 0.0
    mult_ok = True
    for twice in (1, 2, 3, 4):
        j = HalfInt(twice)
        rep = rep_generators(j)
        det_expected = (-1.0) ** j.block_dim  # sign of the block-swap permutation
        P = parity_operator(rep, sample_momenta(rng, per_spin))
        worst_sq = max(worst_sq, float(stack_norm(P @ P - np.eye(j.dim), 2).max(initial=0.0)))
        ev = np.linalg.eigvals(P)
        worst_ev = max(worst_ev, float(np.max(np.abs(np.abs(ev.real) - 1.0) + np.abs(ev.imag), initial=0.0)))
        plus = np.sum(ev.real > 0, axis=-1)
        mult_ok = mult_ok and bool(np.all(plus == j.block_dim) and np.all(j.dim - plus == j.block_dim))
        worst_det = max(worst_det, float(np.max(np.abs(np.linalg.det(P) - det_expected), initial=0.0)))
    residuals = {"square": worst_sq, "eigenvalue": worst_ev, "det": worst_det}
    ok = mult_ok and all(v <= tol for v in residuals.values())
    return {
        "per_spin_samples": per_spin,
        "max_residuals": residuals,
        "multiplicities_ok": mult_ok,
        "tolerances": {k: tol for k in residuals},
        "pass": bool(ok),
    }


def field_equation_suite(seed: int, per_spin: int = 25, tol: float = 1e-9) -> dict:
    """Boosted u/v spinors solve their sign's field equation for j <= 2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for twice in (1, 2, 3, 4):
        j = HalfInt(twice)
        momenta = sample_momenta(rng, per_spin)
        basis = boosted_spinors(j, momenta)
        for ws, sign in ((basis.u, +1), (basis.v, -1)):
            r = field_equation_residual(j, np.array(ws), momenta, sign)
            worst = max(worst, float(r.max(initial=0.0)))
    return {
        "per_spin_samples": per_spin,
        "max_residuals": {"field_equation": worst},
        "tolerances": {"field_equation": tol},
        "pass": bool(worst <= tol),
    }


def covariance_suite(seed: int, per_spin: int = 100, tol: float = 1e-8) -> dict:
    """Parity-family covariance under random pure boosts and rotations, j <= 3/2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for twice in (1, 2, 3):
        rep = rep_generators(HalfInt(twice))
        fam = parity_family(rep)
        momenta = sample_momenta(rng, per_spin)
        pairs = stack_pairs(random_transform_pairs(rep, rng, per_spin))
        worst = max(worst, float(covariance_residual(fam, momenta, *pairs).max(initial=0.0)))
    return {
        "per_spin_samples": per_spin,
        "max_residuals": {"covariance": worst},
        "tolerances": {"covariance": tol},
        "pass": bool(worst <= tol),
    }


def kinematic_checker_suite(seed: int, tol: float = 1e-8) -> dict:
    """Definition-level checks: parity is fully kinematic, the off-diagonal
    scale family is for any a != 0, and the anti-linear family fails the
    involution condition by at least 1 on the |a|, |b| grid."""
    rng = np.random.default_rng(seed)
    rep_half = rep_generators(HalfInt(1))

    parity_ok = True
    for twice in (1, 2):
        rep = rep_generators(HalfInt(twice))
        report = is_fully_kinematic(parity_family(rep), samples=25, tol=tol, seed=seed + twice)
        parity_ok = parity_ok and report.fully_kinematic

    # ten scaled swaps, checked as one family stack on one draw of momenta
    # and pairs; the draws stay scalar calls, in the order of one loop
    a = [rng.uniform(0.2, 5.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(10)]
    swap_ok = is_fully_kinematic(scaled_swap_family(rep_half, a), samples=10, tol=tol, seed=seed).fully_kinematic

    # anti-linear grid: anticommutes but the square stays >= 1 away from I
    q = FourMomentum(1.0, (0.3, -0.2, 0.5))
    grid = np.logspace(-1, 1, 5)
    ab = [
        (amag * np.exp(1j * rng.uniform(0, 2 * np.pi)), bmag * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        for amag in grid
        for bmag in grid
    ]
    fam = elko.antilinear_family(rep_half, *np.array(ab).T)
    anti_ok = fam.anticommutator_residual() <= tol
    min_gap = float(stack_norm(fam.squared_at(q) - np.eye(4), 2).min())
    return {
        "parity_fully_kinematic": bool(parity_ok),
        "scaled_swap_fully_kinematic": bool(swap_ok),
        "antilinear_anticommutes": bool(anti_ok),
        "max_residuals": {"antilinear_square_gap_min": float(min_gap)},
        "tolerances": {"conditions": tol, "antilinear_square_gap_min": 1.0},
        "pass": bool(parity_ok and swap_ok and anti_ok and min_gap >= 1.0),
    }


def antilinear_solutions_suite(seed: int, tol: float = 1e-10) -> dict:
    """The anti-linear anticommutation system has a 2-complex-dimensional
    solution space spanned by diag(Theta,0) o K and diag(0,Theta) o K."""
    space = elko.antilinear_kinematic_solutions(rep_generators(HalfInt(1)), tol=tol)
    return {
        "dimension": space.dimension,
        "max_residuals": {"span": space.span_residual},
        "tolerances": {"span": tol},
        "pass": bool(space.dimension == 2 and space.span_residual <= tol),
    }


def _complex_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4) draws z, row k as one normal(4) + 1j * normal(4) call pair
    draws it."""
    x = rng.normal(size=(n, 2, 4))
    return x[:, 0] + 1j * x[:, 1]


def elko_nogo_suite(seed: int, mc_samples: int = 10_000) -> dict:
    """The Schur/no-go chain: random bases always violate a condition;
    exact-condition pairs are degenerate; commutant residual tracks the
    conditions in both directions."""
    rng = np.random.default_rng(seed)
    mc = elko.nogo_monte_carlo(samples=mc_samples, seed=seed)

    # 100 exact-condition pairs, each drawn as lam, b (complex) and t: d = t b
    # keeps Im(b conj(d)) = 0, so both conditions hold and det must vanish
    x = rng.normal(size=(100, 5))
    lam = x[:, 0] + 1j * x[:, 1]
    b = x[:, 2] + 1j * x[:, 3]
    family = elko.schur_condition_family(lam, b, x[:, 4] * b)
    r1, r2 = elko.schur_conditions(family)
    # a pair off the conditions fails the suite; unlike a stop at that pair,
    # the stream has then moved past all 100 draws
    if (np.maximum(r1, r2) > 1e-12).any():
        worst_det = np.inf
    else:
        worst_det = float(family.abs_det.max(initial=0.0))

    # both directions of the Schur equivalence, over the candidates with
    # |det| >= 0.1 among 200 random unit pairs
    z = _complex_normals(rng, 200)
    u, v = z[:, :2] / stack_norm(z[:, :2], 1)[:, None], z[:, 2:] / stack_norm(z[:, 2:], 1)[:, None]
    keep = elko.Cx2Basis(u=u, v=v).abs_det >= 0.1
    basis = elko.Cx2Basis(u=u[keep], v=v[keep])
    r1, r2 = elko.schur_conditions(basis)
    comm = elko.rotation_commutant_residual(elko.g_operator(basis), samples=20, seed=seed)
    equivalence_ok = bool(np.all((comm <= 1e-9) == (np.maximum(r1, r2) <= 1e-10)))
    # conditions-hold side, at the operator level: block-scalar matrices
    # (the Schur commutant) do commute with every rotation
    G = np.kron(_complex_normals(rng, 5).reshape(5, 2, 2), np.eye(2))
    scalar_comm = float(elko.rotation_commutant_residual(G, samples=20, seed=seed).max())
    # conditions-fail side: r1-only and r2-only families are detected
    fam_r1 = elko.schur_condition_family(1.0, 1.0, 1j)  # r1 = 0, r2 = 2, det = 2i
    detect_r2 = elko.rotation_commutant_residual(elko.g_operator(fam_r1), samples=20, seed=seed)
    fam_r2 = elko.Cx2Basis(u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]))  # r2 = 0, r1 = 1
    detect_r1 = elko.rotation_commutant_residual(elko.g_operator(fam_r2), samples=20, seed=seed)

    ok = (
        mc["pass"]
        and worst_det <= 1e-10
        and equivalence_ok
        and scalar_comm <= 1e-12
        and detect_r1 > 1e-3
        and detect_r2 > 1e-3
    )
    return {
        "monte_carlo": mc,
        "max_residuals": {
            "constructed_family_det": float(worst_det),
            "block_scalar_commutant": scalar_comm,
        },
        "schur_equivalence_ok": bool(equivalence_ok),
        "commutant_detects_r1": float(detect_r1),
        "commutant_detects_r2": float(detect_r2),
        "tolerances": {"constructed_family_det": 1e-10, "block_scalar_commutant": 1e-12},
        "pass": bool(ok),
    }


_G_E1_E2 = np.array(
    [[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]], dtype=complex
)


def g_operator_suite(seed: int, samples: int = 100, tol: float = 1e-10) -> dict:
    """G(u,v)^2 = I and the four eigenvalue relations for random bases; the
    u=e1, v=e2 case reproduces the derived matrix entrywise."""
    rng = np.random.default_rng(seed)
    z = np.empty((0, 4), dtype=complex)
    while len(z) < samples:
        # never more candidates than still needed, so the accepted ones are
        # the first `samples` of the stream and nothing is drawn past them
        new = _complex_normals(rng, samples - len(z))
        z = np.concatenate([z, new[elko.Cx2Basis(u=new[:, :2], v=new[:, 2:]).abs_det >= 0.05]])
    basis = elko.Cx2Basis(u=z[:, :2], v=z[:, 2:])
    G = elko.g_operator(basis)
    eb = elko.elko_basis(basis)
    worst = float(stack_norm(G @ G - np.eye(4), 2).max(initial=0.0))
    for w, s in ((eb.u_plus, 1), (eb.u_minus, -1), (eb.v_plus, 1), (eb.v_minus, -1)):
        r = stack_norm((G @ w[..., None])[..., 0] - s * w, 1) / stack_norm(w, 1)
        worst = max(worst, float(r.max(initial=0.0)))
    explicit = float(
        np.max(np.abs(elko.g_operator(elko.Cx2Basis(u=np.array([1.0, 0]), v=np.array([0, 1.0]))) - _G_E1_E2))
    )
    return {
        "samples": samples,
        "max_residuals": {"relations": worst, "e1_e2_case": explicit},
        "tolerances": {"relations": tol, "e1_e2_case": 1e-14},
        "pass": bool(worst <= tol and explicit <= 1e-14),
    }


def decomposition_suite(seed: int, samples: int = 100, tol: float = 1e-9) -> dict:
    """gamma.p = m K(q) Xi(q) for the canonical and helicity-Elko bases."""
    momenta = sample_momenta(np.random.default_rng(seed), samples)
    worst = {}
    for name, basis in (
        ("canonical", rest_spinors(HalfInt(1), mass=momenta.m)),
        ("helicity", dec.elko_rest_basis(momenta.m)),
    ):
        worst[name] = float(dec.decomposition_residual(basis, momenta).residual.max(initial=0.0))
    ok = all(v <= tol for v in worst.values())
    return {
        "samples": samples,
        "max_residuals": worst,
        "tolerances": {k: tol for k in worst},
        "pass": bool(ok),
    }


def tensor_swap_suite(seed: int, per_spin: int = 50, tol: float = 1e-9) -> dict:
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
        exact_sq = max(exact_sq, float(np.max(np.abs(S @ S - np.eye(rep.dim)))))
        for Ka in rep.K:
            worst_alg = max(worst_alg, float(np.linalg.norm(anticommutator(S, Ka))))
        d = j.block_dim
        momenta = sample_momenta(rng, per_spin)
        A = swap_operator_at(j, momenta)
        for w in boosted_spinors(j, momenta).u:
            # psi_R kron psi_L for every momentum at once
            t_psi = (w[:, :d, None] * w[:, None, d:]).reshape(per_spin, d * d)
            r = stack_norm((A @ t_psi[..., None])[..., 0] - t_psi, 1) / stack_norm(t_psi, 1)
            worst_int = max(worst_int, float(r.max(initial=0.0)))
    return {
        "per_spin_samples": per_spin,
        "max_residuals": {"square_exact": exact_sq, "anticommutator": worst_alg, "intertwining": worst_int},
        "tolerances": {"square_exact": 0.0, "anticommutator": 1e-12, "intertwining": tol},
        "pass": bool(exact_sq == 0.0 and worst_alg <= 1e-12 and worst_int <= tol),
    }


def origin_suite(seed: int) -> dict:
    """Helicity-based G at unit mass: Cauchy along rays, direction-dependent at
    the origin. Deterministic, so the seed is unused."""
    report = elko.helicity_origin_discontinuity(1.0)
    ray_worst = max(report["ray_cauchy"].values())
    z_x = report["pairwise_distance"]["(0,0,1) vs (1,0,0)"]
    z_nz = report["pairwise_distance"]["(0,0,1) vs (0,0,-1)"]
    ok = ray_worst <= 1e-6 and z_x > 0.1 and z_nz > 0.1
    return {
        "max_residuals": {"ray_cauchy": float(ray_worst)},
        "distances": {"z_vs_x": float(z_x), "z_vs_neg_z": float(z_nz)},
        "tolerances": {"ray_cauchy": 1e-6, "direction_distance_min": 0.1},
        "pass": bool(ok),
    }


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
