"""One tolerance path: every check suite is fn(seed), and each of its sample
counts and thresholds is one constant of `spinkin.checks` that both drives
the suite and is the value its report prints."""

import inspect
import json

import pytest

from spinkin import checks, elko
from spinkin.cli import main

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
    ("tensor_swap", "_SWAP_TOL", "intertwining", None),
    ("tensor_swap", "_SWAP_ANTI_TOL", "anticommutator", None),
    ("origin", "_ORIGIN_RAY_TOL", "ray_cauchy", None),
    ("origin", "_ORIGIN_DISTANCE_MIN", "direction_distance_min", 100.0),
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


@pytest.mark.parametrize("suite, constant, path", SAMPLE_COUNTS, ids=[c[1] for c in SAMPLE_COUNTS])
def test_sample_constant_is_the_printed_count(monkeypatch, suite, constant, path):
    monkeypatch.setattr(checks, constant, 3)
    report = SUITE[suite](0)
    for key in path:
        report = report[key]
    assert report == 3


def test_nogo_threshold_constant_gates_pass_and_is_printed(monkeypatch, capsys):
    """The no-go sweep's threshold is one constant of `spinkin.elko`: it gates
    `elko nogo` and the `check all` no-go suite, and both print it."""

    def run(*argv):
        code = main(list(argv))
        return code, json.loads(capsys.readouterr().out)

    code, nogo = run("elko", "nogo")
    assert code == 0 and nogo["threshold"] == elko._NOGO_THRESHOLD
    code, report = run("check", "all", "--seed", "0")
    mc = report["suites"]["elko_nogo"]["monte_carlo"]
    assert code == 0 and mc["pass"] and mc["threshold"] == elko._NOGO_THRESHOLD
    # above the floor that either sweep reaches
    patched = 2 * max(nogo["min_max_r"], mc["min_max_r"])
    monkeypatch.setattr(elko, "_NOGO_THRESHOLD", patched)
    code, nogo = run("elko", "nogo")
    assert code == 1 and nogo["pass"] is False and nogo["threshold"] == patched
    code, report = run("check", "all", "--seed", "0")
    mc = report["suites"]["elko_nogo"]["monte_carlo"]
    assert code == 1 and mc["pass"] is False and mc["threshold"] == patched
    assert [name for name, suite in report["suites"].items() if not suite["pass"]] == ["elko_nogo"]
