"""Command-line surface: generator/operator dumps, spinor solutions, the gamma
tensor, Elko tools, the decomposition, and the regression check harness.

Each handler builds one payload of library values (arrays, complex numbers,
reports) and hands it to `_emit`, which writes it as JSON or as its text
view. All JSON output carries "schema_version": 1, complex numbers as
[re, im] pairs, a 2-d array as {"rows", "cols", "data"} with its entries
row-major and any other array as the flat list of its entries, and is
byte-identical for identical seeds and flags (floats use shortest round-trip
formatting; timing goes to stderr). It is strict JSON: a non-finite float is
the string "inf", "-inf" or "nan". `_jsonable` is the one encoder and
`matrix_from_json` its inverse for a matrix; `_render` prints every field of
the same payload, one per line.

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


def _pair(z: complex) -> list:
    """A complex number as [re, im]."""
    return [_number(z.real), _number(z.imag)]


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and complexes to JSON types."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        data = [_pair(z) for z in obj.astype(complex).ravel().tolist()]
        if obj.ndim == 2:
            return {"rows": obj.shape[0], "cols": obj.shape[1], "data": data}
        return data
    if isinstance(obj, (complex, np.complexfloating)):
        return _pair(complex(obj))
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return _number(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def matrix_from_json(obj: dict) -> np.ndarray:
    """The matrix that `_jsonable` wrote as {"rows", "cols", "data"}: the
    decoder for a reader of the JSON output; the CLI itself only writes it."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"data length {len(data)} does not match {rows}x{cols}")
    return np.array([complex(float(re), float(im)) for re, im in data], dtype=complex).reshape(rows, cols)


def _render(payload: dict, prefix: str = "") -> None:
    """Print every field of the payload, one per line: a scalar as
    `key: value`, an array below `key =`, a dict's fields by dotted key and
    each array of a tuple by index."""
    for key, value in payload.items():
        key = f"{prefix}{key}"
        if isinstance(value, dict):
            _render(value, f"{key}.")
        elif isinstance(value, np.ndarray):
            print(f"{key} =\n{np.array_str(value, precision=10, suppress_small=True)}")
        elif isinstance(value, tuple) and value and isinstance(value[0], np.ndarray):
            _render({f"[{k}]": w for k, w in enumerate(value)}, key)
        else:
            print(f"{key}: {value}")


def _emit(args, payload: dict) -> None:
    """The payload on stdout: as one line of JSON under --json, and always
    for a report command, which has no --json flag; else as its text view."""
    if getattr(args, "json", True):
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        sys.stdout.write(json.dumps(_jsonable(payload), sort_keys=True, allow_nan=False) + "\n")
    else:
        _render(payload)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_generators(args) -> int:
    rep = rep_generators(_spin(args))
    _emit(args, {
        "command": "generators",
        "spin": str(rep.j),
        "spin_twice": rep.j.twice,
        "dim": rep.dim,
        "J": rep.J,
        "K": rep.K,
        "eta": rep.eta,
    })
    return 0


# per command: the JSON key of the operator
_OPERATOR_KEY = {"parity": "matrix", "fieldeq": "operator"}


def cmd_parity(args) -> int:
    """`parity` and `fieldeq`: the spin-j field-equation operator is P_j(q)."""
    from .higherspin import involution_certificate
    j = _spin(args)
    P = parity_operator(rep_generators(j), _momentum(args))
    _emit(args, {
        "command": args.command,
        "spin": str(j),
        "spin_twice": j.twice,
        "mass": args.mass,
        "p": args.p,
        _OPERATOR_KEY[args.command]: P,
        **involution_certificate(P),
    })
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
    _emit(args, {
        "command": "spinors",
        "spin": str(j),
        "spin_twice": j.twice,
        "mass": args.mass,
        "p": args.p,
        "u": basis.u,
        "v": basis.v,
        "residuals": {"u_max": res_u, "v_max": res_v},
    })
    return 0


def cmd_gammatensor(args) -> int:
    from .higherspin import gamma_tensor
    j = _spin(args)
    _emit(args, {
        "command": "gammatensor",
        "spin": str(j),
        "spin_twice": j.twice,
        "components": {",".join(str(i) for i in idx): mat for idx, mat in gamma_tensor(j).components.items()},
    })
    return 0


def cmd_elko_g(args) -> int:
    from . import elko
    basis = elko.Cx2Basis(u=args.u, v=args.v)
    G = elko.g_operator(basis)
    r1, r2 = elko.schur_conditions(basis)
    _emit(args, {
        "command": "elko g",
        "u": basis.u,
        "v": basis.v,
        "G": G,
        "r1": r1,
        "r2": r2,
        "det_abs": abs(basis.det),
    })
    return 0


def cmd_elko_nogo(args) -> int:
    from . import elko
    report = elko.nogo_monte_carlo(samples=args.samples, seed=args.seed)
    _emit(args, {"command": "elko nogo", **report})
    return 0 if report["pass"] else 1


def cmd_elko_origin(args) -> int:
    from . import elko
    _emit(args, {"command": "elko origin", **elko.helicity_origin_discontinuity()})
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
    _emit(args, {
        "command": "decompose",
        "basis": args.basis,
        "mass": args.mass,
        "p": args.p,
        "K": result.K,
        "Xi": result.Xi,
        "residual": result.residual,
    })
    return 0


def cmd_check_kinematic(args) -> int:
    j = _spin(args)
    report = is_fully_kinematic(parity_family(rep_generators(j)), samples=args.samples, tol=args.tol, seed=args.seed)
    _emit(args, {"command": "check kinematic", "spin_twice": j.twice, **report})
    return 0 if report["pass"] else 1


def cmd_check_all(args) -> int:
    from . import checks
    start = time.monotonic()
    report, times_ms = checks.run_all(args.seed)
    runtime_ms = int((time.monotonic() - start) * 1000)
    _emit(args, {"command": "check all", **report})
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
    add_momentum(p)
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
