"""Span tracing of spinkin's public layer functions, installed from outside.

`Tracer.install()` replaces each function in `WRAPPED` with a wrapper that
records one span `(function index, start ns, end ns, parent span, spin tag)`.
The library binds names with `from .kinematics import ...`, so a wrapper set
on the defining module alone would miss calls made from the modules that
imported the name; the wrapper is therefore put into every `spinkin.*`
namespace that holds the original object, and into `checks.SUITES`.

Spans stay in memory (`Tracer.spans`) until the caller takes them;
`summarize()` folds one batch into counters. A span's self time is
its duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> public functions wrapped with a span each; the span name is
# "<module>.<function>"
WRAPPED = {
    "linalg": ("expm_hermitian", "expm_i_hermitian", "nullspace"),
    "reps": ("rep_generators", "spin_matrices", "tensor_rep_generators"),
    "kinematics": (
        "parity_operator",
        "boost_matrix",
        "rotation_matrix",
        "rapidity_from_momentum",
        "sample_momenta",
        "covariance_residual",
        "is_fully_kinematic",
    ),
    "dirac": ("gamma_matrices", "dirac_operator", "boosted_spinors"),
    "higherspin": ("field_equation_residual", "swap_operator_at", "tensor_boost_matrix"),
    "elko": (
        "nogo_monte_carlo",
        "schur_conditions",
        "rotation_commutant_residual",
        "g_operator",
        "elko_basis",
    ),
    "decomposition": ("decomposition_residual", "xi_tilde_at_rest", "k_operator", "boost_basis"),
}

# the check suites, timed whole; "origin" runs outside checks.SUITES
SUITE_NAMES = (
    "dirac_parity",
    "involution",
    "field_equation",
    "covariance",
    "kinematic_checker",
    "antilinear_solutions",
    "elko_nogo",
    "g_operator",
    "decomposition",
    "tensor_swap",
    "origin",
)

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)
SUITE_SPANS = tuple(f"checks.{s}" for s in SUITE_NAMES)
SPAN_NAMES = FUNCTIONS + SUITE_SPANS + ("cli.main",)
SPINS = (1, 2, 3, 4)


def _spin_of_rep(args):
    return args[0].j.twice


def _spin_of_label(args):
    j = args[0]
    twice = getattr(j, "twice", None)
    if twice is None:
        from spinkin.reps import HalfInt

        twice = HalfInt.coerce(j).twice
    return twice


# spans tagged with the spin 2j of the function's first argument
_TAGGERS = {
    "kinematics.parity_operator": _spin_of_rep,
    "reps.rep_generators": _spin_of_label,
    "dirac.boosted_spinors": _spin_of_label,
    "higherspin.field_equation_residual": _spin_of_label,
}


def resolve(name: str):
    """The library function behind span `name`, or None if it no longer exists."""
    mod, fn_name = name.split(".")
    if mod == "checks":
        fn_name = f"{fn_name}_suite"
    return getattr(importlib.import_module(f"spinkin.{mod}"), fn_name, None)


class Tracer:
    """Installs and removes the span wrappers; holds the recorded spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (namespace, attribute, original)
        self._suites = None

    def _wrap(self, index, fn, tagger):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tagger(args) if tagger is not None and args else 0
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, tag)

        return wrapper

    def install(self):
        """Wrap every traced function in every spinkin namespace bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        checks = importlib.import_module("spinkin.checks")
        replacements = {}  # id(original) -> (original, wrapper)
        for index, name in enumerate(SPAN_NAMES):
            original = resolve(name)
            if original is None:  # its counters stay 0, which the run's coverage guard reports
                continue
            replacements[id(original)] = (original, self._wrap(index, original, _TAGGERS.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "spinkin" or mod_name.startswith("spinkin.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))
        self._suites = checks.SUITES
        checks.SUITES = tuple(
            (name, replacements.get(id(fn), (fn, fn))[1]) for name, fn in self._suites
        )

    def remove(self):
        """Restore every original binding."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        if self._suites is not None:
            importlib.import_module("spinkin.checks").SUITES = self._suites
            self._suites = None

    def take(self):
        """Return the spans recorded so far and start a new batch."""
        if self._stack:
            raise RuntimeError("spans taken while a traced call is open")
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans) -> dict:
    """Fold spans into additive counters keyed "<span>.calls", "<span>.self_s",
    "<span>.total_s", and "<span>.2j<k>.calls" / ".2j<k>.total_s" for spin-tagged
    spans."""
    child_ns = [0] * len(spans)
    for index, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for slot, (index, start, end, _, tag) in enumerate(spans):
        name = SPAN_NAMES[index]
        dur = end - start
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + dur * 1e-9
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (dur - child_ns[slot]) * 1e-9
        if tag:
            key = f"{name}.2j{tag}"
            out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
            out[f"{key}.total_s"] = out.get(f"{key}.total_s", 0.0) + dur * 1e-9
    return out
