"""The span names of the benchmark's tracer (perfbench/spans.py) still name
library functions, so a rename fails here and not only in a traced run."""

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
