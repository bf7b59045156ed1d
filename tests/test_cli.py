import argparse
import importlib
import inspect
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spinkin
from spinkin import cli
from spinkin.cli import _jsonable, main, matrix_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def text_fields(out: str) -> dict:
    """The `key: value` lines of a text view, value as printed, by key."""
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


class TestBasicCommands:
    def test_generators_schema(self, capsys):
        code, obj = run_json(capsys, "generators", "--spin", "1", "--json")
        assert code == 0
        assert obj["schema_version"] == 1
        assert obj["dim"] == 4 and obj["spin"] == "1/2"
        Kz = matrix_from_json(obj["K"][2])
        assert np.allclose(Kz, np.diag([-0.5j, 0.5j, 0.5j, -0.5j]))

    def test_parity_rest_is_block_swap(self, capsys):
        # --spin takes 2j: spin 2 means j = 1, a 6x6 eta at rest
        code, obj = run_json(capsys, "parity", "--spin", "2", "--mass", "1", "--p", "0,0,0", "--json")
        assert code == 0
        P = matrix_from_json(obj["matrix"])
        assert P.shape == (6, 6)
        expected = np.zeros((6, 6), dtype=complex)
        expected[:3, 3:] = np.eye(3)
        expected[3:, :3] = np.eye(3)
        assert np.array_equal(P, expected)
        assert obj["multiplicities"] == {"+1": 3, "-1": 3} and obj["square_residual"] == 0.0
        assert obj["certified"] is True
        assert "eigenvalues" not in obj and "det" not in obj

    @pytest.mark.parametrize("command", ["parity", "fieldeq"])
    def test_certificate_past_the_envelope(self, capsys, command):
        """At 2j = 8 and |phi| = 7.65 the counts read 9/9, as they do at any
        momentum, but the square residual, far above 1, says that P^2 = I is
        not met in double precision, so the counts are not certified there;
        np.linalg.det of that P is -6.7e167 - 1.6e167i."""
        argv = (command, "--spin", "8", "--mass", "1", "--p", "300,100,1000")
        code, obj = run_json(capsys, *argv, "--json")
        assert code == 0
        assert obj["multiplicities"] == {"+1": 9, "-1": 9} and obj["square_residual"] > 1.0
        assert obj["certified"] is False
        code, out, _ = run_cli(capsys, *argv)
        fields = text_fields(out)
        assert code == 0 and (fields["multiplicities.+1"], fields["multiplicities.-1"]) == ("9", "9")
        assert fields["certified"] == "False" and float(fields["square_residual"]) > 1.0

    def test_spinors_residuals(self, capsys):
        code, obj = run_json(
            capsys, "spinors", "--spin", "1", "--mass", "1", "--p", "0,0,0.75", "--json"
        )
        assert code == 0
        assert len(obj["u"]) == 2 and len(obj["v"]) == 2
        assert obj["residuals"]["u_max"] < 1e-10
        assert obj["residuals"]["v_max"] < 1e-10

    @pytest.mark.parametrize("scale", ["1e-170", "1e300"])
    def test_spinors_with_momentum_at_the_scale_of_its_mass(self, capsys, scale):
        # |p|^2 underflows or overflows there, p/m does not
        code, obj = run_json(capsys, "spinors", "--spin", "1", "--mass", scale, "--p", f"0,0,{scale}", "--json")
        assert code == 0
        assert max(obj["residuals"].values()) <= 1e-9

    def test_fieldeq(self, capsys):
        args = ("--spin", "3", "--mass", "2", "--p", "1,0,0", "--json")
        code, obj = run_json(capsys, "fieldeq", *args)
        assert code == 0
        op = matrix_from_json(obj["operator"])
        assert op.shape == (8, 8)
        assert np.linalg.norm(op @ op - np.eye(8)) < 1e-8
        # parity prints the same operator; only the command and its key differ
        code, parity = run_json(capsys, "parity", *args)
        assert code == 0
        assert (obj.pop("command"), parity.pop("command")) == ("fieldeq", "parity")
        obj["matrix"] = obj.pop("operator")
        assert obj == parity

    def test_gammatensor(self, capsys):
        code, obj = run_json(capsys, "gammatensor", "--spin", "1", "--json")
        assert code == 0
        assert set(obj) == {"schema_version", "command", "spin", "spin_twice", "components"}
        assert list(obj["components"]) == ["0", "1", "2", "3"]
        g0 = matrix_from_json(obj["components"]["0"])
        eta = np.zeros((4, 4), dtype=complex)
        eta[:2, 2:] = np.eye(2)
        eta[2:, :2] = np.eye(2)
        assert np.array_equal(g0, eta)

    def test_elko_g_matches_derived_matrix(self, capsys):
        code, obj = run_json(capsys, "elko", "g", "--u", "1,0", "--v", "0,1", "--json")
        assert code == 0
        G = matrix_from_json(obj["G"])
        expected = np.array(
            [[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]], dtype=complex
        )
        assert np.max(np.abs(G - expected)) <= 1e-14
        assert obj["r1"] == 1.0

    def test_elko_nogo_rejects_empty_sweep(self, capsys):
        code, out, err = run_cli(capsys, "elko", "nogo", "--samples", "0")
        assert code == 2
        assert out == "" and "samples" in err

    def test_elko_nogo_passes(self, capsys):
        code, obj = run_json(capsys, "elko", "nogo", "--samples", "500", "--seed", "7")
        assert code == 0
        assert obj["pass"] is True
        assert obj["min_ratio"] >= 1.0 and obj["min_excess"] >= -obj["tol"]

    def test_elko_origin(self, capsys):
        code, obj = run_json(capsys, "elko", "origin", "--json")
        assert code == 0 and "mass" not in obj
        assert max(obj["ray_cauchy"].values()) <= 1e-6
        assert obj["pairwise_distance"]["(0,0,1) vs (1,0,0)"] > 0.1
        # G depends on the direction alone: the command takes no mass
        with pytest.raises(SystemExit) as exc:
            main(["elko", "origin", "--mass", "1"])
        assert exc.value.code == 2

    def test_decompose_both_bases(self, capsys):
        for basis in ("canonical", "helicity"):
            code, obj = run_json(
                capsys, "decompose", "--mass", "1", "--p", "0.2,0,0.5", "--basis", basis, "--json"
            )
            assert code == 0
            assert obj["residual"] < 1e-9
            K = matrix_from_json(obj["K"])
            assert np.linalg.norm(K @ K - np.eye(4)) < 1e-10

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    def test_decompose_refuses_a_residual_that_is_not_finite(self, capsys, fmt):
        # E + p3 overflows at this momentum, so gamma.p/m is not finite:
        # exit 2 and the error line alone, not a nan residual or a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "decompose", "--mass", "1e300", "--p", "0,0,1e308", *fmt)
        assert code == 2
        assert out == "" and err == "error: the decomposition residual is not finite in double precision; rescale the momentum\n"

    @pytest.mark.parametrize("basis", ["canonical", "helicity"])
    @pytest.mark.parametrize("p", ["0,0,0", "1e308,0,0"])
    def test_decompose_refuses_a_mass_whose_2m_overflows(self, capsys, p, basis):
        # the basis is sound at any finite mass; 2m = 2e308 is what overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "decompose", "--mass", "1e308", "--p", p, "--basis", basis)
        assert code == 2
        assert out == "" and err == "error: 2m overflows double precision (m = 1e+308); rescale the mass\n"

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    @pytest.mark.parametrize("scale", ["1e-170", "1e160", "1e300", "1e307"])
    def test_decompose_far_from_unit_mass_without_warning(self, capsys, scale, fmt):
        # |gamma.p|^2 underflows at 1e-170 and overflows at 1e160, and at
        # 1e307 2m is within a factor 9 of the largest float; judged over m,
        # the residual stays at roundoff, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "decompose", "--mass", scale, "--p", f"{scale},0,0", *fmt)
        assert code == 0 and err == ""
        residual = json.loads(out)["residual"] if fmt else float(text_fields(out)["residual"])
        assert 0.0 < residual <= 1e-15

    @pytest.mark.parametrize("command", ["parity", "spinors", "decompose"])
    def test_momentum_echoed_as_parsed(self, capsys, command):
        """--mass and --p are printed as the parser read them, Python floats
        in JSON and in text."""
        spin = () if command == "decompose" else ("--spin", "1")
        argv = (command, *spin, "--mass", "1", "--p", "0.3,0,0.5")
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert '"mass": 1.0' in out and '"p": [0.3, 0.0, 0.5]' in out
        code, out, _ = run_cli(capsys, *argv)
        fields = text_fields(out)
        assert code == 0 and (fields["mass"], fields["p"]) == ("1.0", "(0.3, 0.0, 0.5)")

    def test_human_readable_default(self, capsys):
        code, out, _ = run_cli(capsys, "parity", "--spin", "1", "--mass", "1", "--p", "0,0,0")
        fields = text_fields(out)
        assert code == 0 and "{" not in out
        assert (fields["multiplicities.+1"], fields["multiplicities.-1"]) == ("2", "2")
        assert fields["square_residual"] == "0.0" and fields["certified"] == "True"
        # eta at rest prints with no negative zeros
        assert "-0." not in out


class TestMatrixJson:
    """The CLI's encoding of an array and `matrix_from_json`, its inverse."""

    def test_round_trip_bit_exact(self, rng):
        raw = rng.normal(size=(5, 5)) * np.exp(rng.uniform(-300, 300, size=(5, 5)))
        M = raw + 1j * rng.normal(size=(5, 5)) * np.exp(rng.uniform(-300, 300, size=(5, 5)))
        text = json.dumps(_jsonable(M))
        back = matrix_from_json(json.loads(text))
        assert back.shape == M.shape
        assert np.array_equal(back, M)  # bit-exact, no tolerance

    def test_schema_fields(self):
        obj = _jsonable(np.eye(2))
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"][0] == [1.0, 0.0] and obj["data"][1] == [0.0, 0.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    def test_non_finite_entries_are_strict_json(self):
        """An array entry is written as a complex scalar is: a non-finite
        part is the string "inf", "-inf" or "nan", and decodes back."""
        M = np.array([[np.inf, complex(1.0, np.nan)], [complex(0.5, -np.inf), np.nan]])
        text = json.dumps(_jsonable(M), allow_nan=False)
        assert json.loads(text)["data"] == [["inf", 0.0], [1.0, "nan"], [0.5, "-inf"], ["nan", 0.0]]
        assert np.array_equal(matrix_from_json(json.loads(text)), M, equal_nan=True)
        assert json.dumps(_jsonable(M[0]), allow_nan=False) == '[["inf", 0.0], [1.0, "nan"]]'


class TestCheckCommands:
    def test_check_all_leaks_no_state_across_runs(self, capsys):
        """A run after another seed's run prints what it printed first: no
        operator memoised during one run reaches the next."""
        outs = [run_cli(capsys, "check", "all", "--seed", seed)[:2] for seed in ("42", "7", "42")]
        assert outs[0] == outs[2] and outs[0][0] == 0 and outs[0][1] != outs[1][1]

    def test_check_kinematic_passes(self, capsys):
        code, obj = run_json(
            capsys, "check", "kinematic", "--spin", "2", "--samples", "10", "--tol", "1e-7"
        )
        assert code == 0
        assert obj["pass"] is True
        assert set(obj["max_residuals"]) == {"square", "anticommutator", "covariance"}

    def test_check_kinematic_fails_on_absurd_tol(self, capsys):
        code, obj = run_json(
            capsys, "check", "kinematic", "--spin", "2", "--samples", "5", "--tol", "1e-30"
        )
        assert code == 1
        assert obj["pass"] is False

    def test_tol_env_override_flag_wins(self, capsys):
        code, obj = run_json(capsys, "check", "kinematic", "--spin", "1", "--samples", "5")
        assert code == 0 and obj["tol"] == 1e-7  # the default
        code, obj = run_json(
            capsys, "check", "kinematic", "--spin", "1", "--samples", "5", "--tol", "1e-30"
        )
        assert code == 1 and obj["tol"] == 1e-30  # the flag tightened the tolerance

    @pytest.mark.parametrize("flag", ["nan", "inf", "-1", "0"])
    def test_invalid_tol_exits_2(self, capsys, flag):
        code, out, err = run_cli(capsys, "check", "kinematic", "--spin", "1", "--samples", "5", "--tol", flag)
        assert code == 2
        assert out == "" and "tol" in err


    def test_check_all_times_each_suite_on_stderr(self, capsys):
        from spinkin.checks import SUITES

        code, out, err = run_cli(capsys, "check", "all", "--seed", "3")
        assert code == 0 and json.loads(out)["pass"] is True
        line = err.strip()
        assert line.startswith("check all: pass in ") and len(err.splitlines()) == 1
        for name, _ in SUITES:
            assert f" {name} " in line


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parity", "--spin", "1", "--mass", "1", "--frob"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_momentum_format_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["parity", "--spin", "1", "--mass", "1", "--p", "1,2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("elko", "g", "--u", "nan,0", "--v", "0,1", "--json"),
            ("elko", "g", "--u", "1e200,1e200", "--v", "1e200,-1e200", "--json"),
            ("decompose", "--mass", "1", "--p", "nan,0,0", "--json"),
        ],
    )
    def test_non_finite_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and "finite" in err

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "parity", "--spin", "1", "--mass", "-1", "--p", "0,0,0")
        assert code == 2
        assert "error" in err

    def test_spin_past_16_exits_2_with_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "parity", "--spin", "17", "--mass", "1", "--p", "0,0,1")
        assert code == 2 and out == ""
        assert err == "error: 2j = 17 is past the largest supported spin, 2j = 16\n"

    def test_residual_at_a_tiny_mass_scale(self, capsys):
        """At m = |p| = 1e-300 the spinors' squares underflow; the residual
        is still the relative one at that rapidity, not 0."""
        values = []
        for m in ("1", "1e-300"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, obj = run_json(capsys, "spinors", "--spin", "1", "--mass", m, "--p", f"0,0,{m}", "--json")
            assert code == 0
            values.append(obj["residuals"]["u_max"])
        assert 0.0 < values[1] <= 4.0 * values[0]

    @pytest.mark.parametrize("mass, p", [("1", "1e200,0,0"), ("1e-300", "1e10,0,0")])
    def test_overflowing_momentum_exits_2_with_one_error_line(self, capsys, mass, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "parity", "--spin", "1", "--mass", mass, "--p", p)
        assert code == 2 and out == ""
        assert err == "error: rapidity must be finite and within the parity overflow cap 15.0, got inf\n"

    def test_parity_refusal_names_its_own_cap(self, capsys):
        """phi = 19.1 is within the boost cap 30 but past the parity cap 15,
        the cap of B(2 phi)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "parity", "--spin", "1", "--mass", "1", "--p", "0,0,1e8")
        assert code == 2 and out == ""
        assert err == "error: rapidity must be finite and within the parity overflow cap 15.0, got 19.114\n"


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the same spinkin as this test, installed or not
        src = str(Path(spinkin.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-m", "spinkin", "parity", "--spin", "1", "--mass", "1", "--json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.returncode == 0
        obj = json.loads(out.stdout)
        assert obj["command"] == "parity"


# the six commands of perfbench's cli_oneshot workload, a usage error, a
# refused input and a check all
SHARED_PARSER_ARGVS = [
    ["parity", "--spin", "2", "--mass", "1", "--p", "0.3,0,0.5", "--json"],
    ["spinors", "--spin", "4", "--mass", "1", "--p", "0,0,0.75", "--json"],
    ["elko", "g", "--u", "1,0", "--v", "0,1", "--json"],
    ["decompose", "--mass", "1", "--p", "0.2,0,0.5", "--basis", "helicity", "--json"],
    ["check", "kinematic", "--spin", "2", "--samples", "50", "--tol", "1e-7"],
    ["elko", "nogo", "--samples", "10000", "--seed", "20240811"],
    ["parity", "--spin", "1", "--mass", "1", "--p", "1,2"],
    ["parity", "--spin", "1", "--mass", "1", "--p", "0,0,1e8"],
    ["check", "all", "--seed", "42"],
]


def run_outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), a usage error included;
    the timings on check all's stderr line are masked."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if argv[:2] == ["check", "all"]:
        err = re.sub(r"\d+", "#", err)
    return code, out, err


class TestSharedParser:
    def test_reuse_leaks_nothing_between_calls(self, capsys, monkeypatch):
        """Twice through the list on the shared parser, each call reads as
        it does on a parser of its own."""
        shared = [run_outcome(capsys, argv) for argv in SHARED_PARSER_ARGVS * 2]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run_outcome(capsys, argv) for argv in SHARED_PARSER_ARGVS]
        assert shared == fresh * 2
        codes = [code for code, _, _ in fresh]
        assert codes == [0, 0, 0, 0, 0, 0, 2, 2, 0]
        assert fresh[6][2].startswith("usage: spinkin parity") and fresh[7][2].startswith("error: ")

    def test_parser_built_once_across_calls(self, capsys, monkeypatch):
        """Several main calls construct the top-level parser once."""
        builds = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            builds.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for argv in SHARED_PARSER_ARGVS[:3] + SHARED_PARSER_ARGVS[6:8]:
            run_outcome(capsys, argv)
        assert builds.count("spinkin") == 1


def readme_cli_examples() -> list[list[str]]:
    """The arguments of each `spinkin ...` line of the README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv[:1] == ["spinkin"]]


def readme_python_script() -> tuple[str, list[str]]:
    """The README's ```python blocks joined into one script, with an assert
    after each line whose comment states a shape, and the shapes stated.
    A basis's shape is that of each of its spinors."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        "def _shape(x):",
        "    shapes = {w.shape for w in x.spinors} if hasattr(x, 'spinors') else {x.shape}",
        "    assert len(shapes) == 1, shapes",
        "    return shapes.pop()",
    ]
    shapes = []
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        for line in block.splitlines():
            lines.append(line)
            stated = re.match(r"(\w+) = .*#.*?(\(\d+(?:, \d+)*,?\))", line)
            if stated:
                name, shape = stated.groups()
                shapes.append(shape)
                lines.append(f"assert _shape({name}) == {shape}, _shape({name})")
    return "\n".join(lines) + "\n", shapes


def test_readme_python_examples_run():
    """The README's Python blocks, joined, run in one fresh process with
    warnings as errors, and each result has the shape its comment states."""
    script, shapes = readme_python_script()
    assert shapes == ["(1000, 8, 8)", "(1000, 8)", "(1000,)", "(2, 1000)"]
    src = str(Path(spinkin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
def test_readme_cli_example_runs(capsys, argv):
    """Every documented command runs and exits 0."""
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


@pytest.mark.parametrize("argv", [argv for argv in readme_cli_examples() if "--json" in argv], ids=" ".join)
def test_readme_cli_text_view_prints_every_field(capsys, argv):
    """Each documented --json line, run without --json, exits 0 and prints
    every top-level key of its JSON payload but the schema version."""
    _, obj = run_json(capsys, *argv)
    code, out, err = run_cli(capsys, *(arg for arg in argv if arg != "--json"))
    assert code == 0, err
    printed = {re.match(r"[^:.\[ ]*", line).group() for line in out.splitlines()}
    assert set(obj) - {"schema_version"} <= printed


# public functions that no README command reaches, each with the reason it stays
REACH_ALLOWLIST = {
    "cli.matrix_from_json": "the decoder of the JSON schema the CLI writes, for its readers",
    "higherspin.GammaTensor.contract": "the contraction a gamma_tensor suite of check all is to certify",
    "higherspin.GammaTensor.component": "the symmetric index lookup of that suite",
}


def spinkin_modules() -> list:
    return [
        importlib.import_module(f"spinkin.{info.name}")
        for info in pkgutil.iter_modules(spinkin.__path__)
        if not info.name.startswith("_")
    ]


def public_functions() -> dict:
    """Code object -> "module.name" (or "module.Class.name") of every public
    function, method, classmethod and property defined in src/spinkin."""
    out = {}
    for module in spinkin_modules():
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            obj = inspect.unwrap(obj)  # a cached builder is judged by its function
            if inspect.isfunction(obj):
                out[obj.__code__] = f"{short}.{name}"
                continue
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if not attr.startswith("_") and inspect.isfunction(member):
                    out[member.__code__] = f"{short}.{name}.{attr}"
    return out


def test_readme_cli_reaches_every_public_function(capsys):
    """One path per claim: the README's CLI lines, `check all` among them,
    call every public function of the library, bar the allowlist."""
    functions = public_functions()
    assert set(REACH_ALLOWLIST) <= set(functions.values())
    # run as a fresh process would: a builder behind a cache that earlier
    # tests filled would otherwise not be called
    for module in spinkin_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        for argv in readme_cli_examples():
            main(argv)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    reached = {functions[code] for code in functions.keys() & called}
    unreached = sorted(set(functions.values()) - reached - REACH_ALLOWLIST.keys())
    assert not unreached, f"public functions no README CLI line reaches: {unreached}"
