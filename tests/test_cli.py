import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinkin
from spinkin.cli import main
from spinkin.linalg import matrix_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


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
        assert obj["det"] == [-1.0, 0.0] or abs(obj["det"][0] + 1.0) < 1e-9

    def test_spinors_residuals(self, capsys):
        code, obj = run_json(
            capsys, "spinors", "--spin", "1", "--mass", "1", "--p", "0,0,0.75", "--json"
        )
        assert code == 0
        assert len(obj["u"]) == 2 and len(obj["v"]) == 2
        assert obj["residuals"]["u_max"] < 1e-10
        assert obj["residuals"]["v_max"] < 1e-10

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
        code, obj = run_json(
            capsys, "gammatensor", "--spin", "1", "--samples", "52", "--seed", "3", "--json"
        )
        assert code == 0
        assert obj["max_residual"] < 1e-10
        g0 = matrix_from_json(obj["components"]["0"])
        eta = np.zeros((4, 4), dtype=complex)
        eta[:2, 2:] = np.eye(2)
        eta[2:, :2] = np.eye(2)
        assert np.allclose(g0, eta, atol=1e-10)

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
        assert obj["min_max_r"] > 0.01

    def test_elko_origin(self, capsys):
        code, obj = run_json(capsys, "elko", "origin", "--mass", "1.0", "--json")
        assert code == 0
        assert max(obj["ray_cauchy"].values()) <= 1e-6
        assert obj["pairwise_distance"]["(0,0,1) vs (1,0,0)"] > 0.1

    def test_decompose_both_bases(self, capsys):
        for basis in ("canonical", "helicity"):
            code, obj = run_json(
                capsys, "decompose", "--mass", "1", "--p", "0.2,0,0.5", "--basis", basis, "--json"
            )
            assert code == 0
            assert obj["residual"] < 1e-9
            K = matrix_from_json(obj["K"])
            assert np.linalg.norm(K @ K - np.eye(4)) < 1e-10

    @pytest.mark.parametrize("command", ["parity", "spinors", "decompose"])
    def test_momentum_echoed_as_parsed(self, capsys, command):
        """--mass and --p are printed as the parser read them, Python floats
        in JSON and in text."""
        spin = () if command == "decompose" else ("--spin", "1")
        argv = (command, *spin, "--mass", "1", "--p", "0.3,0,0.5")
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert '"mass": 1.0' in out and '"p": [0.3, 0.0, 0.5]' in out
        if command == "parity":
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and "m=1.0, p=(0.3, 0.0, 0.5):" in out.splitlines()[0]

    def test_human_readable_default(self, capsys):
        code, out, _ = run_cli(capsys, "parity", "--spin", "1", "--mass", "1", "--p", "0,0,0")
        assert code == 0
        assert "eigenvalues" in out and "{" not in out.splitlines()[0]


class TestCheckCommands:
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
            ("elko", "origin", "--mass", "inf", "--json"),
            ("elko", "nogo", "--samples", "10", "--threshold", "nan"),
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
