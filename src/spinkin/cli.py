"""Command-line surface: generator/operator dumps, spinor solutions, the gamma
tensor, Elko tools, the decomposition, and the regression check harness.

All JSON output carries "schema_version": 1, complex numbers as [re, im]
pairs, matrices in the repo-wide {"rows", "cols", "data"} schema, and is
byte-identical for identical seeds and flags (floats use shortest round-trip
formatting; timing goes to stderr). It is strict JSON: a non-finite float is
the string "inf", "-inf" or "nan". Handlers put library values (arrays,
complex numbers, reports) straight into the payload; `_jsonable` is the one
converter.

Exit codes: 0 success/pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .kinematics import FourMomentum, is_fully_kinematic, parity_family, parity_operator
from .linalg import matrix_to_json, vector_to_json
from .reps import HalfInt, rep_generators

SCHEMA_VERSION = 1


def _parse_vec3(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 3 comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_c2(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 2 comma-separated complex numbers, got {text!r}")
    try:
        return np.array([complex(p) for p in parts], dtype=complex)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _spin(args) -> HalfInt:
    return HalfInt(args.spin)


def _momentum(args) -> FourMomentum:
    return FourMomentum(args.mass, args.p)


def _number(x: float):
    """`x` itself if finite, else the string "inf", "-inf" or "nan": strict
    JSON has no token for a non-finite float."""
    return x if math.isfinite(x) else str(x)


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and complexes to JSON types."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2:
            return matrix_to_json(obj)
        return vector_to_json(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_number(float(obj.real)), _number(float(obj.imag))]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return _number(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _emit(payload: dict):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    sys.stdout.write(json.dumps(_jsonable(payload), sort_keys=True, allow_nan=False) + "\n")


def _emit_or_print(args, payload: dict, render):
    if getattr(args, "json", False):
        _emit(payload)
    else:
        render()


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_generators(args) -> int:
    rep = rep_generators(_spin(args))
    payload = {
        "command": "generators",
        "spin": str(rep.j),
        "spin_twice": rep.j.twice,
        "dim": rep.dim,
        "J": rep.J,
        "K": rep.K,
        "eta": rep.eta,
    }

    def render():
        print(f"spin {rep.j} generators, dim {rep.dim}")
        for name, mats in (("J", rep.J), ("K", rep.K)):
            for axis, M in zip("xyz", mats):
                print(f"{name}_{axis} =\n{np.array_str(M, precision=6, suppress_small=True)}")
        print(f"eta =\n{np.array_str(rep.eta, precision=6, suppress_small=True)}")

    _emit_or_print(args, payload, render)
    return 0


# per command: JSON key of the operator, and the title line of the text output
_PARITY_VIEWS = {
    "parity": ("matrix", "P_j(q)"),
    "fieldeq": ("operator", "field-equation operator (1/m^2j) gamma...p..."),
}


def cmd_parity(args) -> int:
    """`parity` and `fieldeq`: the spin-j field-equation operator is P_j(q)."""
    from .higherspin import CERTIFICATE_TOL, involution_certificate
    j = _spin(args)
    q = _momentum(args)
    P = parity_operator(rep_generators(j), q)
    cert = involution_certificate(P)
    key, title = _PARITY_VIEWS[args.command]
    payload = {
        "command": args.command,
        "spin": str(j),
        "spin_twice": j.twice,
        "mass": args.mass,
        "p": args.p,
        key: P,
        **cert,
    }

    def render():
        print(f"{title} for spin {j}, m={args.mass}, p={args.p}:")
        print(np.array_str(P, precision=10, suppress_small=True))
        n = cert["multiplicities"]
        print(f"multiplicities: +1: {n['+1']}, -1: {n['-1']}")
        verdict = "certified" if cert["certified"] else "NOT certified"
        print(f"||P^2 - I||_F: {cert['square_residual']:.3e} ({verdict}, tolerance {CERTIFICATE_TOL:g})")

    _emit_or_print(args, payload, render)
    return 0


def cmd_spinors(args) -> int:
    from .dirac import boosted_spinors
    from .higherspin import field_equation_residual
    j = _spin(args)
    q = _momentum(args)
    basis = boosted_spinors(j, q)
    # one call per sign: every spinor of that sign against one P(q)
    res_u, res_v = (
        float(field_equation_residual(j, np.array(ws), q, sign).max())
        for ws, sign in ((basis.u, +1), (basis.v, -1))
    )
    payload = {
        "command": "spinors",
        "spin": str(j),
        "spin_twice": j.twice,
        "mass": args.mass,
        "p": args.p,
        "u": basis.u,
        "v": basis.v,
        "residuals": {"u_max": res_u, "v_max": res_v},
    }

    def render():
        for name, ws in (("u", basis.u), ("v", basis.v)):
            for k, w in enumerate(ws):
                print(f"{name}[{k}] = {np.array_str(w, precision=10, suppress_small=True)}")
        print(f"residuals: u_max={res_u:.3e} v_max={res_v:.3e}")

    _emit_or_print(args, payload, render)
    return 0


def cmd_gammatensor(args) -> int:
    from .higherspin import gamma_tensor
    j = _spin(args)
    tensor = gamma_tensor(j)
    payload = {
        "command": "gammatensor",
        "spin": str(j),
        "spin_twice": j.twice,
        "components": {",".join(str(i) for i in idx): mat for idx, mat in tensor.components.items()},
    }

    def render():
        print(f"gamma tensor, spin {j}: {len(tensor.components)} symmetric components")
        for idx, mat in tensor.components.items():
            print(f"component {idx}:\n{np.array_str(mat, precision=8, suppress_small=True)}")

    _emit_or_print(args, payload, render)
    return 0


def cmd_elko_g(args) -> int:
    from . import elko
    basis = elko.Cx2Basis(u=args.u, v=args.v)
    G = elko.g_operator(basis)
    r1, r2 = elko.schur_conditions(basis)
    payload = {
        "command": "elko g",
        "u": basis.u,
        "v": basis.v,
        "G": G,
        "r1": r1,
        "r2": r2,
        "det_abs": abs(basis.det),
    }

    def render():
        print(np.array_str(G, precision=10, suppress_small=True))
        print(f"r1={r1:.6g} r2={r2:.6g} |det|={abs(basis.det):.6g}")

    _emit_or_print(args, payload, render)
    return 0


def cmd_elko_nogo(args) -> int:
    from . import elko
    report = elko.nogo_monte_carlo(samples=args.samples, seed=args.seed)
    _emit({"command": "elko nogo", **report})
    return 0 if report["pass"] else 1


def cmd_elko_origin(args) -> int:
    from . import elko
    report = elko.helicity_origin_discontinuity()
    payload = {"command": "elko origin", **report}

    def render():
        print(f"ray Cauchy deltas: {report['ray_cauchy']}")
        print(f"pairwise directional distances: {report['pairwise_distance']}")

    _emit_or_print(args, payload, render)
    return 0


def cmd_decompose(args) -> int:
    from . import decomposition as dec
    from .dirac import rest_spinors
    q = _momentum(args)
    if args.basis == "canonical":
        basis = rest_spinors(HalfInt(1), mass=q.m)
    else:
        basis = dec.elko_rest_basis(q.m)
    result = dec.decomposition_residual(basis, q)
    payload = {
        "command": "decompose",
        "basis": args.basis,
        "mass": args.mass,
        "p": args.p,
        "K": result.K,
        "Xi": result.Xi,
        "residual": result.residual,
    }

    def render():
        print("K(q) =\n" + np.array_str(result.K, precision=10, suppress_small=True))
        print("Xi(q) =\n" + np.array_str(result.Xi, precision=10, suppress_small=True))
        print(f"||gamma.p - m K Xi|| / ||gamma.p|| = {result.residual:.3e}")

    _emit_or_print(args, payload, render)
    return 0


def cmd_check_kinematic(args) -> int:
    rep = rep_generators(HalfInt(args.spin))
    report = is_fully_kinematic(parity_family(rep), samples=args.samples, tol=args.tol, seed=args.seed)
    _emit({"command": "check kinematic", "spin_twice": args.spin, **report})
    return 0 if report["pass"] else 1


def cmd_check_all(args) -> int:
    from . import checks
    start = time.monotonic()
    report, times_ms = checks.run_all(args.seed)
    runtime_ms = int((time.monotonic() - start) * 1000)
    _emit({"command": "check all", **report})
    # timing stays off stdout so identical seeds give byte-identical reports
    suites = ", ".join(f"{name} {ms:.0f}" for name, ms in times_ms.items())
    verdict = "pass" if report["pass"] else "FAIL"
    print(f"check all: {verdict} in {runtime_ms} ms (per suite, ms: {suites})", file=sys.stderr)
    return 0 if report["pass"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `spinkin` argument parser, built on the first call and shared by
    every later one: parse_args keeps no state between calls, and each
    handler, bound by set_defaults, imports the library modules it calls
    when it runs, so a command loads no module it does not use."""
    parser = argparse.ArgumentParser(
        prog="spinkin",
        description="Kinematic operators on (j,0)+(0,j): parity, Dirac-type equations, Elko no-go checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")

    def add_spin(p):
        p.add_argument("--spin", type=int, required=True, metavar="2J",
                       help="twice the spin (1 for j=1/2, 2 for j=1, ...)")

    def add_momentum(p):
        p.add_argument("--mass", type=float, required=True, help="mass m > 0")
        p.add_argument("--p", type=_parse_vec3, default=(0.0, 0.0, 0.0),
                       metavar="PX,PY,PZ", help="3-momentum components")

    p = sub.add_parser("generators", help="rotation/boost generators and eta")
    add_spin(p)
    add_json(p)
    p.set_defaults(fn=cmd_generators)

    p = sub.add_parser("parity", help="momentum-space parity operator")
    add_spin(p)
    add_momentum(p)
    add_json(p)
    p.set_defaults(fn=cmd_parity)

    p = sub.add_parser("spinors", help="boosted u/v eigenspinors and residuals")
    add_spin(p)
    add_momentum(p)
    add_json(p)
    p.set_defaults(fn=cmd_spinors)

    p = sub.add_parser("fieldeq", help="spin-j field-equation operator and its involution certificate")
    add_spin(p)
    add_momentum(p)
    add_json(p)
    p.set_defaults(fn=cmd_parity)

    p = sub.add_parser("gammatensor", help="exact symmetric gamma tensor")
    add_spin(p)
    add_json(p)
    p.set_defaults(fn=cmd_gammatensor)

    p = sub.add_parser("elko", help="charge-conjugation tools")
    esub = p.add_subparsers(dest="elko_command", required=True)
    pg = esub.add_parser("g", help="the G(u,v) operator and Schur conditions")
    pg.add_argument("--u", type=_parse_c2, required=True, metavar="A,B")
    pg.add_argument("--v", type=_parse_c2, required=True, metavar="C,D")
    add_json(pg)
    pg.set_defaults(fn=cmd_elko_g)
    pn = esub.add_parser("nogo", help="Monte-Carlo no-go sweep")
    pn.add_argument("--samples", type=int, default=10000)
    pn.add_argument("--seed", type=int, default=20240811)
    pn.set_defaults(fn=cmd_elko_nogo)
    po = esub.add_parser("origin", help="direction dependence of G at the origin")
    add_json(po)
    po.set_defaults(fn=cmd_elko_origin)

    p = sub.add_parser("decompose", help="gamma.p = m K(q) Xi(q) factors")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--p", type=_parse_vec3, default=(0.0, 0.0, 0.0), metavar="PX,PY,PZ")
    p.add_argument("--basis", choices=("canonical", "helicity"), default="canonical")
    add_json(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("check", help="residual check suites")
    csub = p.add_subparsers(dest="check_command", required=True)
    pk = csub.add_parser("kinematic", help="Definition-level checks for the parity family")
    add_spin(pk)
    pk.add_argument("--samples", type=int, default=50)
    pk.add_argument("--tol", type=float, default=1e-7, help="residual tolerance")
    pk.add_argument("--seed", type=int, default=0)
    pk.set_defaults(fn=cmd_check_kinematic)
    pa = csub.add_parser("all", help="every module's residual suite")
    pa.add_argument("--seed", type=int, default=42)
    pa.set_defaults(fn=cmd_check_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
