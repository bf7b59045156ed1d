"""One tolerance path: every check suite is fn(seed), and each of its sample
counts and thresholds is one constant of `spinkin.checks` that drives the
suite and, apart from six not printed yet, is the value its report prints;
one builder judges every gate, and a nan fails it."""

import dataclasses
import inspect
import itertools
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from spinkin import checks, elko
from spinkin.cli import main
from test_cli import readme_cli_examples

SUITE = dict(checks.SUITES)

# (suite, constant, key under "tolerances", patched value): a threshold set
# past the value it bounds at seed 0; None sets an upper bound below the
# residual of the same key (to -1 where that residual is exactly 0)
THRESHOLDS = [
    ("dirac_parity", "_DIRAC_TOL", "identification", None),
    ("involution", "_INVOLUTION_TOL", "square", None),
    ("field_equation", "_FIELD_TOL", "field_equation", None),
    ("covariance", "_COVARIANCE_TOL", "covariance", None),
    ("kinematic_checker", "_KINEMATIC_TOL", "conditions", 1e-300),
    ("kinematic_checker", "_KINEMATIC_GAP_MIN", "antilinear_square_gap_min", 100.0),
    ("antilinear_solutions", "_SPAN_TOL", "span", None),
    ("elko_nogo", "_NOGO_DET_TOL", "constructed_family_det", None),
    ("elko_nogo", "_NOGO_COMM_TOL", "block_scalar_commutant", None),
    ("g_operator", "_G_TOL", "relations", None),
    ("g_operator", "_G_E1_E2_TOL", "e1_e2_case", None),
    ("decomposition", "_DECOMPOSITION_TOL", "canonical", None),
    ("tensor_swap", "_SWAP_SQUARE_TOL", "square_exact", None),
    ("tensor_swap", "_SWAP_TOL", "intertwining", None),
    ("tensor_swap", "_SWAP_ANTI_TOL", "anticommutator", None),
    ("origin", "_ORIGIN_RAY_TOL", "ray_cauchy", None),
    ("origin", "_ORIGIN_DISTANCE_MIN", "direction_distance_min", 100.0),
]

# (suite, constant, patched value): a threshold the report does not print,
# set past every value it bounds at seed 0
UNPRINTED_THRESHOLDS = [
    # below the roundoff of every exact-condition pair
    ("elko_nogo", "_NOGO_EXACT_TOL", -1.0),
    # every random pair then commutes, although none meets the conditions
    ("elko_nogo", "_EQUIVALENCE_COMM_TOL", np.inf),
    # every random pair then meets the conditions, although none commutes
    ("elko_nogo", "_EQUIVALENCE_COND_TOL", np.inf),
    # above the commutant residual 1 of the r1-only and r2-only pairs
    ("elko_nogo", "_NOGO_DETECT_MIN", 2.0),
]

# (suite, constant, path to the printed count in the report)
SAMPLE_COUNTS = [
    ("dirac_parity", "_DIRAC_SAMPLES", ("samples",)),
    ("involution", "_INVOLUTION_PER_SPIN", ("per_spin_samples",)),
    ("field_equation", "_FIELD_PER_SPIN", ("per_spin_samples",)),
    ("covariance", "_COVARIANCE_PER_SPIN", ("per_spin_samples",)),
    ("elko_nogo", "_NOGO_MC_SAMPLES", ("monte_carlo", "samples")),
    ("g_operator", "_G_SAMPLES", ("samples",)),
    ("decomposition", "_DECOMPOSITION_SAMPLES", ("samples",)),
    ("tensor_swap", "_SWAP_PER_SPIN", ("per_spin_samples",)),
]


def test_every_suite_takes_only_a_seed():
    for name, fn in checks.SUITES:
        assert list(inspect.signature(fn).parameters) == ["seed"], name


@pytest.mark.parametrize("suite, constant, key, patched", THRESHOLDS, ids=[c[1] for c in THRESHOLDS])
def test_threshold_constant_gates_pass_and_is_printed(monkeypatch, suite, constant, key, patched):
    report = SUITE[suite](0)
    assert report["pass"] and report["tolerances"][key] == getattr(checks, constant)
    if patched is None:
        residual = report["max_residuals"][key]
        patched = residual / 2 if residual > 0 else -1.0
    monkeypatch.setattr(checks, constant, patched)
    report = SUITE[suite](0)
    assert report["pass"] is False
    assert report["tolerances"][key] == patched


@pytest.mark.parametrize("suite, constant, patched", UNPRINTED_THRESHOLDS, ids=[c[1] for c in UNPRINTED_THRESHOLDS])
def test_unprinted_threshold_constant_gates_pass(monkeypatch, suite, constant, patched):
    assert SUITE[suite](0)["pass"]
    monkeypatch.setattr(checks, constant, patched)
    assert SUITE[suite](0)["pass"] is False


@pytest.mark.parametrize("suite, constant, path", SAMPLE_COUNTS, ids=[c[1] for c in SAMPLE_COUNTS])
def test_sample_constant_is_the_printed_count(monkeypatch, suite, constant, path):
    monkeypatch.setattr(checks, constant, 3)
    report = SUITE[suite](0)
    for key in path:
        report = report[key]
    assert report == 3


def test_kinematic_draw_counts_are_the_constants(monkeypatch):
    """The two counts the kinematic checker draws are unprinted constants."""
    drawn = []
    checker = checks.is_fully_kinematic

    def spy(fam, *, samples, **kwargs):
        drawn.append(samples)
        return checker(fam, samples=samples, **kwargs)

    monkeypatch.setattr(checks, "is_fully_kinematic", spy)
    monkeypatch.setattr(checks, "_KINEMATIC_PARITY_SAMPLES", 3)
    monkeypatch.setattr(checks, "_KINEMATIC_SWAP_SAMPLES", 4)
    assert checks.kinematic_checker_suite(0)["pass"]
    assert drawn == [3, 3, 4]


def run_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_nogo_threshold_constant_gates_pass_and_is_printed(monkeypatch, capsys):
    """The no-go sweep's one constant, the roundoff allowance `tol` of the
    bound sqrt(2) max(r1, r2) >= |det|, lives in `spinkin.elko`: it gates
    `elko nogo` and the `check all` no-go suite, and both print it."""
    code, nogo = run_json(capsys, "elko", "nogo")
    assert code == 0 and nogo["tol"] == elko._NOGO_TOL and nogo["min_excess"] > 0
    code, report = run_json(capsys, "check", "all", "--seed", "0")
    mc = report["suites"]["elko_nogo"]["monte_carlo"]
    assert code == 0 and mc["pass"] and mc["tol"] == elko._NOGO_TOL and mc["min_excess"] > 0
    # an allowance below minus either sweep's smallest excess demands more
    # than the sweeps reach
    patched = -2 * max(nogo["min_excess"], mc["min_excess"])
    monkeypatch.setattr(elko, "_NOGO_TOL", patched)
    code, nogo = run_json(capsys, "elko", "nogo")
    assert code == 1 and nogo["pass"] is False and nogo["tol"] == patched
    code, report = run_json(capsys, "check", "all", "--seed", "0")
    mc = report["suites"]["elko_nogo"]["monte_carlo"]
    assert code == 1 and mc["pass"] is False and mc["tol"] == patched
    assert [name for name, suite in report["suites"].items() if not suite["pass"]] == ["elko_nogo"]


def _flipped_r2(moduli):
    """elko's Schur moduli with the sign inside r2 flipped, |s_ac + s_bd|: a
    wrong formula."""
    return lambda w_re, w_im, s_ac, s_bd: moduli(w_re, w_im, s_ac, -s_bd)


def test_nogo_gate_fails_a_wrong_schur_formula(monkeypatch, capsys):
    """The sweep and schur_conditions form r2 from elko's pair kernel in
    _schur_moduli, so a wrong formula there fails `elko nogo` and only the
    no-go suite; G(u, v), read off the same kernel, is left as it is."""
    monkeypatch.setattr(elko, "_schur_moduli", _flipped_r2(elko._schur_moduli))
    code, nogo = run_json(capsys, "elko", "nogo", "--samples", "10000", "--seed", "20240811")
    assert code == 1 and nogo["pass"] is False and nogo["min_ratio"] < 0.5
    code, report = run_json(capsys, "check", "all", "--seed", "42")
    assert code == 1
    assert [name for name, suite in report["suites"].items() if not suite["pass"]] == ["elko_nogo"]
    assert report["suites"]["elko_nogo"]["monte_carlo"]["pass"] is False


def _nan_in_kernel_w(out):
    """The (re det, im det, re w, im w, s_ac, s_bd) of elko's pair kernel with
    a nan written at pair 0 of re w (or at the one value of a single pair),
    so that r1 = |w| is nan there."""
    det_re, det_im, w_re, *rest = out
    w_re = np.array(w_re)
    w_re.flat[0] = np.nan
    return det_re, det_im, w_re, *rest


def _nan_in_r1(conditions):
    """The (r1, r2) of schur_conditions with a nan written at pair 0 of r1."""
    r1, r2 = conditions
    return _nan_at(0)(r1), r2


def test_nogo_gate_fails_a_nan_in_every_chunk(monkeypatch, capsys):
    """A nan at pair 0 of every chunk of the sweep is kept by its fold and
    fails `elko nogo` and the no-go suite. The sweep forms r1 = |w| from
    elko's pair kernel, poisoned here on every call the sweep makes:
    schur_conditions and g_operator refuse a nan, so their calls of the
    kernel are left as they are."""
    kernel, sweep = elko._pair_kernel, elko.nogo_monte_carlo

    def poisoned_sweep(**kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(elko, "_pair_kernel", lambda parts: _nan_in_kernel_w(kernel(parts)))
            return sweep(**kwargs)

    monkeypatch.setattr(elko, "nogo_monte_carlo", poisoned_sweep)
    code, nogo = run_json(capsys, "elko", "nogo", "--samples", "10000", "--seed", "20240811")
    assert code == 1 and nogo["pass"] is False
    assert nogo["min_ratio"] == nogo["min_excess"] == "nan"  # strict JSON: a string, not the token NaN
    code, report = run_json(capsys, "check", "all", "--seed", "0")
    assert code == 1
    assert [name for name, suite in report["suites"].items() if not suite["pass"]] == ["elko_nogo"]
    assert report["suites"]["elko_nogo"]["monte_carlo"]["pass"] is False


def _refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def test_failing_report_is_strict_json(monkeypatch, capsys):
    """A failing report prints its non-finite values as strings, which a
    strict JSON parser reads: the exact-condition guard set below every
    pair's roundoff makes the constructed family's determinant inf."""
    monkeypatch.setattr(checks, "_NOGO_EXACT_TOL", -1.0)
    code = main(["check", "all", "--seed", "0"])
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert code == 1 and report["suites"]["elko_nogo"]["max_residuals"]["constructed_family_det"] == "inf"


def _diagonal_involution(rep, q):
    """An exact involution, diag(+1 x (2j+2), -1 x 2j), at every momentum."""
    d = rep.j.block_dim
    signs = np.array([1.0] * (d + 1) + [-1.0] * (d - 1), dtype=complex)
    return np.broadcast_to(np.diag(signs), q.m.shape + (2 * d, 2 * d))


def test_involution_fails_wrong_multiplicities(monkeypatch):
    monkeypatch.setattr(checks, "parity_operator", _diagonal_involution)
    report = checks.involution_suite(0)
    assert report["max_residuals"]["square"] == 0.0
    assert report["multiplicities_ok"] is False and report["pass"] is False


def test_involution_fails_a_perturbed_operator(monkeypatch):
    parity_operator = checks.parity_operator

    def perturbed(rep, q):
        P = parity_operator(rep, q).copy()
        P[..., 0, 0] += 1e-6
        return P

    monkeypatch.setattr(checks, "parity_operator", perturbed)
    report = checks.involution_suite(0)
    assert report["multiplicities_ok"] is True
    assert report["max_residuals"]["square"] > checks._INVOLUTION_TOL and report["pass"] is False


def _nan_at(index):
    """A copy of an array result with a nan written at `index` (memoised
    operators are read-only)."""

    def poison(out):
        out = np.array(out)
        out[index] = np.nan
        return out

    return poison


def _eta_nan(rep):
    """A stand-in for rep whose eta has a nan off the diagonal: the
    generators of a representation are shared and read-only."""
    eta = rep.eta.copy()
    eta[0, 1] = np.nan
    return SimpleNamespace(j=rep.j, dim=rep.dim, J=rep.J, K=rep.K, eta=eta)


def _last_ray_nan(report):
    """The origin report with its last ray delta nan: a fold that keeps the
    first value it saw would drop it."""
    rays = dict(report["ray_cauchy"])
    rays[list(rays)[-1]] = np.nan
    return {**report, "ray_cauchy": rays}


# (suite, the module and name of the library function it calls, how its
# result is poisoned, the residual key): one row per worst-residual fold. An
# operator's nan is off the diagonal, so its trace, and the multiplicities
# read from it, stay finite; C refuses a non-finite matrix, so its images
# are poisoned instead
NAN_PATCHES = [
    ("involution", checks, "parity_operator", _nan_at((..., 0, 1)), "square"),
    ("field_equation", checks, "field_equation_residual", _nan_at((..., 0)), "field_equation"),
    ("covariance", checks, "covariance_residual", _nan_at((..., 0)), "covariance"),
    ("antilinear_solutions", elko, "nullspace", _nan_at((0, 0)), "span"),
    (
        "g_operator",
        elko,
        "elko_basis",
        lambda eb: dataclasses.replace(eb, u_plus=_nan_at((0, 0))(eb.u_plus)),
        "relations",
    ),
    (
        "g_operator",
        elko,
        "charge_conjugation",
        lambda C: lambda w: _nan_at((..., 0))(C(w)),
        "charge_conjugation",
    ),
    (
        "tensor_swap",
        checks,
        "tensor_rep_generators",
        _eta_nan,
        "square_exact",
    ),
    ("tensor_swap", checks, "anticommutator", _nan_at((0, 1)), "anticommutator"),
    ("tensor_swap", checks, "swap_operator_at", _nan_at((..., 0, 1)), "intertwining"),
    ("origin", elko, "helicity_origin_discontinuity", _last_ray_nan, "ray_cauchy"),
]


@pytest.mark.parametrize(
    "suite, module, name, poison, key", NAN_PATCHES, ids=[f"{c[0]}-{c[4]}" for c in NAN_PATCHES]
)
def test_a_nan_residual_fails_its_suite(monkeypatch, suite, module, name, poison, key):
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: poison(fn(*args, **kwargs)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = SUITE[suite](0)
    assert np.isnan(report["max_residuals"][key]) and report["pass"] is False
    assert report.get("multiplicities_ok", True) is True


def _distance_nan(pair):
    """The origin report with the distance of one pair of rays nan."""
    return lambda report: {**report, "pairwise_distance": {**report["pairwise_distance"], pair: np.nan}}


# (suite, the module and name of the library function it calls, which of its
# calls is poisoned (None: every call), how, and the path in the report of the
# gated value): one row per value a gate judges that is not a residual fold.
# The suite's calls of rotation_commutant_residual are, in order, the
# equivalence pairs, the block scalars, the r1-only and the r2-only family;
# its first calls of elko's pair kernel are the sweep's chunks (a nan in re w
# makes r1 nan), and its first schur_conditions call is on the exact-condition
# pairs (a nan from the kernel would be refused there, so that row poisons what
# schur_conditions returns)
NAN_GATE_PATCHES = [
    ("kinematic_checker", checks, "square_residual", None, _nan_at(0), ("max_residuals", "antilinear_square_gap_min")),
    *(
        ("origin", elko, "helicity_origin_discontinuity", None, _distance_nan(pair), ("distances", key))
        for key, pair in (("z_vs_x", "(0,0,1) vs (1,0,0)"), ("z_vs_neg_z", "(0,0,1) vs (0,0,-1)"))
    ),
    ("elko_nogo", elko, "rotation_commutant_residual", 0, _nan_at(0), ("schur_equivalence_ok",)),
    ("elko_nogo", elko, "rotation_commutant_residual", 2, lambda r: np.nan, ("commutant_detects_r2",)),
    ("elko_nogo", elko, "rotation_commutant_residual", 3, lambda r: np.nan, ("commutant_detects_r1",)),
    ("elko_nogo", elko, "_pair_kernel", 0, _nan_in_kernel_w, ("monte_carlo", "min_ratio")),
    ("elko_nogo", elko, "schur_conditions", 0, _nan_in_r1, ("max_residuals", "constructed_family_det")),
]


@pytest.mark.parametrize(
    "suite, module, name, call, poison, path",
    NAN_GATE_PATCHES,
    ids=[f"{c[0]}-{c[5][-1]}" for c in NAN_GATE_PATCHES],
)
def test_a_nan_in_a_gated_value_fails_its_suite(monkeypatch, suite, module, name, call, poison, path):
    """A gate's `<=` or `>=` reads False on a nan, so the gated value shows
    the nan (or the inf or False it was judged into) and the suite fails."""
    fn = getattr(module, name)
    calls = itertools.count()

    def poisoned(*args, **kwargs):
        out = fn(*args, **kwargs)
        return poison(out) if next(calls) == call or call is None else out

    monkeypatch.setattr(module, name, poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = SUITE[suite](0)
    value = report
    for key in path:
        value = value[key]
    assert report["pass"] is False
    assert value is False or not np.isfinite(value)


def test_check_all_needs_no_eigensolver_or_determinant(monkeypatch, capsys):
    """check all, and every other README CLI line, certifies through
    identities: no general eigenvalue solver and no LU determinant runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("a CLI line called an eigensolver or a determinant")

    for name in ("eigvals", "eig", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    argvs = readme_cli_examples()
    assert ["check", "all", "--seed", "42"] in argvs
    for argv in argvs:
        assert main(argv) == 0, argv
    capsys.readouterr()
