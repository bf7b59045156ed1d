"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
Every tolerance is pinned here, nothing deferred.
"""

import json
import time

import numpy as np

from spinkin.cli import main
from spinkin.decomposition import decomposition_residual, elko_rest_basis, xi_tilde_at_rest
from spinkin.dirac import boosted_spinors, dirac_operator, rest_spinors
from spinkin.elko import (
    Cx2Basis,
    antilinear_family,
    antilinear_kinematic_solutions,
    elko_basis,
    g_operator,
    helicity_origin_discontinuity,
    nogo_monte_carlo,
    rotation_commutant_residual,
    schur_condition_family,
    schur_conditions,
)
from spinkin.higherspin import field_equation_residual, swap_operator_at
from spinkin.kinematics import (
    FourMomentum,
    covariance_residual,
    is_fully_kinematic,
    parity_family,
    parity_operator,
    random_transform_pairs,
    sample_momenta,
    scaled_swap_family,
)
from spinkin.linalg import anticommutator
from spinkin.reps import HalfInt, rep_generators, tensor_rep_generators


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_dirac_parity_identification():
    rep = rep_generators(HalfInt(1))
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for q in sample_momenta(rng, 1000):
        slash = dirac_operator(q)
        r = np.linalg.norm(q.m * parity_operator(rep, q) - slash) / np.linalg.norm(slash)
        worst = max(worst, float(r))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, ok, f"||mP - gamma.p||/||gamma.p|| max {worst:.3e} <= 1e-10 over 1000 momenta in {elapsed:.2f}s")


def test_criterion_02_involution():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    worst_sq = worst_ev = worst_det = 0.0
    mult_ok = True
    for twice in (1, 2, 3, 4):
        j = HalfInt(twice)
        rep = rep_generators(j)
        det_ref = None
        for q in sample_momenta(rng, 100):
            P = parity_operator(rep, q)
            worst_sq = max(worst_sq, float(np.linalg.norm(P @ P - np.eye(j.dim))))
            ev = np.linalg.eigvals(P)
            worst_ev = max(worst_ev, float(np.max(np.abs(np.abs(ev.real) - 1.0) + np.abs(ev.imag))))
            mult_ok = mult_ok and int(np.sum(ev.real > 0)) == j.block_dim
            det = np.linalg.det(P)
            if det_ref is None:
                det_ref = det
            worst_det = max(worst_det, float(abs(det - det_ref)))
    elapsed = time.perf_counter() - start
    ok = worst_sq <= 1e-7 and worst_ev <= 1e-7 and worst_det <= 1e-7 and mult_ok and elapsed < 5.0
    report(
        2,
        ok,
        f"||P^2-I|| max {worst_sq:.3e}, eig dev {worst_ev:.3e}, det drift {worst_det:.3e}, "
        f"multiplicities {'ok' if mult_ok else 'BAD'}, {elapsed:.2f}s",
    )


def test_criterion_03_field_equation():
    rng = np.random.default_rng(3)
    worst = 0.0
    for twice in (1, 2, 3, 4):
        j = HalfInt(twice)
        for q in sample_momenta(rng, 25):
            basis = boosted_spinors(j, q)
            for w in basis.u:
                worst = max(worst, field_equation_residual(j, w, q, +1))
            for w in basis.v:
                worst = max(worst, field_equation_residual(j, w, q, -1))
    ok = worst <= 1e-9
    report(3, ok, f"boosted u/v field-equation residual max {worst:.3e} <= 1e-9 for j <= 2")


def test_criterion_04_covariance():
    rng = np.random.default_rng(4)
    worst = 0.0
    for twice in (1, 2, 3):
        rep = rep_generators(HalfInt(twice))
        fam = parity_family(rep)
        for q in sample_momenta(rng, 100):
            # one boost pair, then one rotation pair, each a stack of one
            for L, D in random_transform_pairs(rep, rng, 1):
                worst = max(worst, float(covariance_residual(fam, q, L, D)[0]))
    ok = worst <= 1e-8
    report(4, ok, f"parity covariance residual max {worst:.3e} <= 1e-8 under 100 boosts+rotations, j <= 3/2")


def test_criterion_05_definition_checker():
    rng = np.random.default_rng(5)
    rep = rep_generators(HalfInt(1))
    parity_ok = is_fully_kinematic(parity_family(rep), samples=25, tol=1e-8, seed=5)["pass"]

    swap_ok = True
    for _ in range(10):
        a = rng.uniform(0.2, 5.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        swap_ok = swap_ok and is_fully_kinematic(
            scaled_swap_family(rep, a), samples=10, tol=1e-8, seed=6
        )["pass"]

    q = FourMomentum(1.0, (0.3, -0.2, 0.5))
    min_gap = np.inf
    anti_ok = True
    for amag in np.logspace(-1, 1, 5):
        for bmag in np.logspace(-1, 1, 5):
            a = amag * np.exp(1j * rng.uniform(0, 2 * np.pi))
            b = bmag * np.exp(1j * rng.uniform(0, 2 * np.pi))
            fam = antilinear_family(rep, a, b)
            rep_chk = is_fully_kinematic(fam, samples=5, tol=1e-8, seed=7)
            anti_ok = anti_ok and rep_chk["anticommutes"] and not rep_chk["squares_to_identity"]
            min_gap = min(min_gap, float(np.linalg.norm(fam.squared_at(q) - np.eye(4))))
    ok = parity_ok and swap_ok and anti_ok and min_gap >= 1.0
    report(
        5,
        ok,
        f"parity fully kinematic: {parity_ok}; scale family (10 random a): {swap_ok}; "
        f"anti-linear fails involution with min ||A^2-I|| = {min_gap:.3f} >= 1 on the grid",
    )


def test_criterion_06_antilinear_solution_space():
    space = antilinear_kinematic_solutions(rep_generators(HalfInt(1)))
    ok = space["dimension"] == 2 and space["span_residual"] <= 1e-10
    report(
        6,
        ok,
        f"anticommutation solution space dim {space['dimension']} == 2, "
        f"span residual vs diag(Theta,0)/diag(0,Theta) = {space['span_residual']:.3e}",
    )


def test_criterion_07_elko_nogo():
    # sqrt(2) max(r1, r2) >= |det| on every pair, up to 1e-12 of roundoff
    mc = nogo_monte_carlo(samples=10_000, seed=20240811)
    every_sample = mc["pass"] and mc["min_ratio"] >= 1.0 and mc["tol"] == 1e-12

    rng = np.random.default_rng(7)
    worst_det = 0.0
    for _ in range(100):
        lam = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        basis = schur_condition_family(lam, b, float(rng.normal()) * b)
        worst_det = max(worst_det, abs(basis.det))
    constructed_ok = worst_det <= 1e-10

    equivalence_ok = True
    checked = 0
    while checked < 200:
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        basis = Cx2Basis(u=z[:2] / np.linalg.norm(z[:2]), v=z[2:] / np.linalg.norm(z[2:]))
        if abs(basis.det) < 0.1:
            continue
        checked += 1
        r1, r2 = schur_conditions(basis)
        comm = rotation_commutant_residual(g_operator(basis))
        equivalence_ok = equivalence_ok and ((comm <= 1e-9) == (max(r1, r2) <= 1e-10))
    # forward direction at the operator level: block-scalar commutant members
    G = np.block([[1.7j * np.eye(2), 0.3 * np.eye(2)], [2.0 * np.eye(2), -0.4j * np.eye(2)]])
    scalar_ok = rotation_commutant_residual(G) <= 1e-12
    # and each condition alone is detected by the commutant
    detect_r2 = rotation_commutant_residual(g_operator(schur_condition_family(1.0, 1.0, 1j)))
    detect_r1 = rotation_commutant_residual(g_operator(Cx2Basis(u=np.array([1.0, 0.0]), v=np.array([0.0, 1.0]))))
    both_directions = equivalence_ok and scalar_ok and detect_r1 > 1e-3 and detect_r2 > 1e-3

    ok = every_sample and constructed_ok and both_directions
    report(
        7,
        ok,
        f"MC min sqrt(2) max(r1,r2)/|det| over 1e4 bases {mc['min_ratio']:.4f} >= 1; constructed-family |det| max "
        f"{worst_det:.2e} <= 1e-10; Schur equivalence both directions: {both_directions}",
    )


def test_criterion_08_g_operator_contract():
    rng = np.random.default_rng(8)
    worst = 0.0
    done = 0
    while done < 100:
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        basis = Cx2Basis(u=z[:2], v=z[2:])
        if abs(basis.det) < 0.05:
            continue
        done += 1
        G = g_operator(basis)
        eb = elko_basis(basis)
        worst = max(worst, float(np.linalg.norm(G @ G - np.eye(4))))
        for w, s in ((eb.u_plus, 1), (eb.u_minus, -1), (eb.v_plus, 1), (eb.v_minus, -1)):
            worst = max(worst, float(np.linalg.norm(G @ w - s * w) / np.linalg.norm(w)))
    expected = np.array([[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]], dtype=complex)
    explicit = float(np.max(np.abs(g_operator(Cx2Basis(u=np.array([1.0, 0]), v=np.array([0, 1.0]))) - expected)))
    ok = worst <= 1e-10 and explicit <= 1e-14
    report(8, ok, f"G relations max residual {worst:.3e} <= 1e-10 over 100 bases; e1,e2 case exact to {explicit:.1e}")


def test_criterion_09_decomposition():
    rng = np.random.default_rng(9)
    worst = 0.0
    for q in sample_momenta(rng, 100):
        for basis in (rest_spinors(HalfInt(1), mass=q.m), elko_rest_basis(q.m)):
            xi_tilde_at_rest(basis)  # raises unless the system has full rank
            worst = max(worst, decomposition_residual(basis, q).residual)
    ok = worst <= 1e-9
    report(9, ok, f"||gamma.p - mK Xi||/||gamma.p|| max {worst:.3e} <= 1e-9, canonical+helicity, unique Xi")


def test_criterion_10_tensor_swap():
    rng = np.random.default_rng(10)
    exact = 0.0
    anti = 0.0
    inter = 0.0
    for twice in (1, 2):
        j = HalfInt(twice)
        rep = tensor_rep_generators(j)
        S = rep.eta
        exact = max(exact, float(np.max(np.abs(S @ S - np.eye(rep.dim)))))
        for Ka in rep.K:
            anti = max(anti, float(np.linalg.norm(anticommutator(S, Ka))))
        d = j.block_dim
        for q in sample_momenta(rng, 50):
            A = swap_operator_at(j, q)
            basis = boosted_spinors(j, q)
            for w in basis.u:  # the +1 parity eigenspinors
                t_psi = np.kron(w[:d], w[d:])
                inter = max(inter, float(np.linalg.norm(A @ t_psi - t_psi) / np.linalg.norm(t_psi)))
    ok = exact == 0.0 and anti <= 1e-12 and inter <= 1e-9
    report(
        10,
        ok,
        f"S^2=I exact ({exact}); max ||{{S,K}}|| {anti:.1e} <= 1e-12; intertwining max {inter:.3e} <= 1e-9",
    )


def test_criterion_11_origin_discontinuity():
    out = helicity_origin_discontinuity()
    ray = max(out["ray_cauchy"].values())
    z_x = out["pairwise_distance"]["(0,0,1) vs (1,0,0)"]
    z_nz = out["pairwise_distance"]["(0,0,1) vs (0,0,-1)"]
    ok = ray <= 1e-6 and z_x > 0.1 and z_nz > 0.1
    report(
        11,
        ok,
        f"ray Cauchy {ray:.1e} <= 1e-6; G(z) vs G(x) = {z_x:.2f} > 0.1; G(z) vs G(-z) = {z_nz:.2f} > 0.1",
    )


def test_criterion_12_determinism(capsys):
    code1 = main(["check", "all", "--seed", "42"])
    out1 = capsys.readouterr().out
    code2 = main(["check", "all", "--seed", "42"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 0
    # report() prints to stdout that capsys intercepts; flush the comparison first
    with capsys.disabled():
        report(12, ok, f"check all --seed 42 twice: byte-identical ({len(out1)} bytes), exit 0")
    parsed = json.loads(out1)
    assert parsed["pass"] is True
