"""The span names of the benchmark's tracer (perfbench/spans.py) still name
library functions, so a rename fails here and not only in a traced run."""

import json
import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    """perfbench/spans.py as a module, read without writing a bytecode cache
    next to it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("name", SPANS.SPAN_NAMES)
def test_span_name_resolves(name):
    assert SPANS.resolve(name) is not None, f"{name} names no spinkin function"


def test_check_all_reaches_every_span(capsys):
    """The coverage guard of the traced check_all workload: one `check all`
    calls every traced function and suite, with at most 60 boost_matrix
    calls (157 before the family, pair and spinor stacks; 47 with them)."""
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
    assert counts["kinematics.boost_matrix.calls"] <= 60
    # the tracer changed no result, and removing it restored the suites
    assert json.loads(capsys.readouterr().out)["suites"] == untraced["suites"]
    assert checks.SUITES[0][1] is checks.dirac_parity_suite
