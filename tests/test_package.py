"""The package namespace, which resolves each public name on first use, and
the spinkin modules that each entry point loads, each read in a fresh
interpreter so that no earlier test has loaded them."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinkin

SUBMODULES = ("decomposition", "dirac", "elko", "higherspin", "kinematics", "linalg", "reps")
# every public name of the package: the seven submodules and the 47 names
# re-exported from them
PUBLIC_NAMES = sorted([
    *SUBMODULES,
    "AntiLinearMap", "Cx2Basis", "Decomposition", "ElkoBasis", "FourMomentum", "GammaSet", "GammaTensor",
    "HalfInt", "KinematicOperatorFamily", "LorentzTransform", "NonHermitianBasisError", "RepGenerators",
    "SpinorBasis", "antilinear_family", "antilinear_kinematic_solutions", "boost_matrix", "boosted_spinors",
    "charge_conjugation", "covariance_residual", "decomposition_residual", "dirac_operator", "elko_basis",
    "elko_rest_basis", "field_equation_residual", "g_operator", "gamma_matrices", "gamma_tensor",
    "helicity_origin_discontinuity", "hermiticity_condition", "involution_certificate", "is_fully_kinematic",
    "k_operator", "nullspace", "parity_family", "parity_operator", "rapidity_from_momentum", "rep_generators",
    "rest_spinors", "rotation_matrix", "sample_momenta", "scaled_swap_family", "schur_conditions",
    "spin_matrices", "tensor_rep_generators", "vector_boost", "vector_rotation", "xi_tilde_at_rest",
])
COMMAND_SPINE = ["spinkin", "spinkin.cli", "spinkin.kinematics", "spinkin.linalg", "spinkin.reps"]


def test_public_names():
    assert len(PUBLIC_NAMES) == 54
    assert spinkin.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(spinkin))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_resolves_to_the_object_its_module_defines(name):
    obj = getattr(spinkin, name)
    if name in SUBMODULES:
        assert obj is importlib.import_module(f"spinkin.{name}")
        return
    module = sys.modules[obj.__module__]
    assert module.__name__.removeprefix("spinkin.") in SUBMODULES
    assert getattr(module, name) is obj
    assert vars(spinkin)[name] is obj  # bound in the package by the first access


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from spinkin import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(spinkin, name) for name in PUBLIC_NAMES)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(spinkin, "no_such_name")


def in_fresh_interpreter(code: str):
    """Run `code` in a new interpreter that imports this test's spinkin, and
    return the JSON it prints on its last line of stdout."""
    src = str(Path(spinkin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    prelude = "import json, sys\nloaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'spinkin')\n"
    out = subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_cli_builds_no_parser():
    """`import spinkin` loads no submodule, yet lists every public name;
    `import spinkin.cli` loads only what every command needs, and builds no
    parser: that happens on first use."""
    code = (
        "import spinkin\n"
        "bare, names = loaded(), [n for n in dir(spinkin) if not n.startswith('_')]\n"
        "import spinkin.cli as cli\n"
        "print(json.dumps([bare, names, loaded(), cli.build_parser.cache_info().currsize]))\n"
    )
    bare, names, with_cli, parsers = in_fresh_interpreter(code)
    assert bare == ["spinkin"] and names == PUBLIC_NAMES
    assert with_cli == COMMAND_SPINE and parsers == 0


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["parity", "--spin", "2", "--mass", "1", "--p", "0.3,0,0.5", "--json"], ["spinkin.higherspin"]),
        (["elko", "g", "--u", "1,0", "--v", "0,1", "--json"], ["spinkin.elko"]),
    ],
    ids=["parity", "elko g"],
)
def test_command_loads_only_the_modules_it_runs(argv, loads):
    """A one-shot command imports the modules its handler calls, on top of
    the CLI's own; `elko g` loads no dirac, higherspin, decomposition or
    checks."""
    code = f"import spinkin.cli\nprint(json.dumps([spinkin.cli.main({argv!r}), loaded()]))\n"
    exit_code, modules = in_fresh_interpreter(code)
    assert exit_code == 0
    assert modules == sorted(COMMAND_SPINE + loads)
