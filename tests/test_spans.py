"""The span names of the benchmark's tracer (perfbench/spans.py) still name
library functions, so a rename fails here and not only in a traced run."""

import json
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def load_source(path: Path, name: str) -> types.ModuleType:
    """A perfbench file as a module, read without writing a bytecode cache
    next to it."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def load_spans() -> types.ModuleType:
    return load_source(SPANS_PATH, "perfbench_spans")


SPANS = load_spans()


def load_run() -> types.ModuleType:
    """perfbench/run.py, with the `spans` and `workloads` modules it imports
    loaded the same way; sys.path and sys.modules are left as they were."""
    saved_path, saved = list(sys.path), {n: sys.modules.get(n) for n in ("spans", "workloads")}
    try:
        sys.modules["spans"] = load_source(SPANS_PATH, "spans")
        sys.modules["workloads"] = load_source(PERFBENCH / "workloads.py", "workloads")
        return load_source(PERFBENCH / "run.py", "perfbench_run")
    finally:
        sys.path[:] = saved_path
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize("name", SPANS.SPAN_NAMES)
def test_span_name_resolves(name):
    assert SPANS.resolve(name) is not None, f"{name} names no spinkin function"


def test_check_all_reaches_every_span(capsys):
    """The coverage guard of the traced check_all workload: one `check all`
    calls every traced function and suite, with at most 31 boost_matrix
    calls (157 before the family, pair and spinor stacks; 47 with them; 31
    once parity_operator needs no boost and is_fully_kinematic evaluates
    A(q) once)."""
    from spinkin import checks, cli

    untraced, _ = checks.run_all(42)
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        assert cli.main(["check", "all", "--seed", "42"]) == 0
    finally:
        tracer.remove()
    counts = SPANS.summarize(tracer.take())
    assert [n for n in SPANS.SPAN_NAMES if not counts.get(f"{n}.calls")] == []
    assert counts["kinematics.boost_matrix.calls"] <= 31
    # the tracer changed no result, and removing it restored the suites
    assert json.loads(capsys.readouterr().out)["suites"] == untraced["suites"]
    assert checks.SUITES[0][1] is checks.dirac_parity_suite


def test_kernel_sweep_reaches_every_required_span():
    """The coverage guard of the traced kernel_sweep workload: one traced
    pass (its momentum draw, then one operation per spin) reaches every
    counter that perfbench/run.py requires of it, so a kernel that drops a
    layer such as linalg.expm_hermitian or rapidity_from_momentum fails
    here, not only in a traced benchmark run."""
    run = load_run()
    wl = run.workloads.KernelSweep(seed=0)
    wl.trace(True)
    try:
        ops = wl.pass_ops(0)
        for i in ops[: len(run.spans.SPINS)]:
            assert wl.check(i, wl.run(i)) is None
    finally:
        wl.trace(False)
    counts = run.spans.summarize(wl.take_spans())
    assert [n for n in run.REQUIRED["kernel_sweep"] if not counts.get(f"{n}.calls")] == []


def test_cli_oneshot_reaches_every_required_span(capsys):
    """The coverage guard of the traced cli_oneshot workload: its fixed
    commands, run in this process through spinkin.cli.main with the tracer
    installed, exit 0, print schema_version 1 where they print JSON, and
    reach every counter that perfbench/run.py requires of the workload."""
    import spinkin.cli

    run = load_run()
    tracer = run.spans.Tracer()
    tracer.install()
    try:
        for argv in run.workloads.CLI_COMMANDS:
            assert spinkin.cli.main(list(argv)) == 0, argv
            out = capsys.readouterr().out
            if "--json" in argv:
                assert json.loads(out)["schema_version"] == 1, argv
    finally:
        tracer.remove()
    counts = run.spans.summarize(tracer.take())
    assert [n for n in run.REQUIRED["cli_oneshot"] if not counts.get(f"{n}.calls")] == []
