"""One benchmark process: set up a workload, then measure it.

    python3 perfbench/worker.py --workload W --seed S --seconds T --mode MODE --workdir DIR

Every mode builds the workload (imports included) and runs operation 0
untimed, then prints `READY` so that run.py can time set-up from outside.

- `setup`: stops there.
- `run`: times whole rounds of operations until `--seconds` have passed.
- `trace`: alternates an untraced and a traced pass over the same inputs
  until `--seconds` have passed (at least one pair), and reports the span
  counters of every traced pass and the traced/untraced time of each pair.

The last stdout line is one JSON object with the outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from array import array
from pathlib import Path

import spans
import workloads

MAX_ERRORS = 5
REF_EVERY_S = 0.25  # reference sample at most this often, between operations
SAMPLE_CAP = 1 << 15


class Thinned:
    """A systematic sample of a stream in bounded memory, taken by whole
    rounds: every round until SAMPLE_CAP values are held, then every second
    round, and so on. A faster program completes more operations, so keeping
    them all would raise the worker's peak RSS with its speed; thinning by
    round keeps the workload's mix of operations (kernel_sweep interleaves
    its spins) in the sample."""

    def __init__(self):
        self.values = array("d")
        self.rounds = array("q")
        self.stride = 1

    def add(self, x: float, r: int):
        """Add the value of an operation of round r."""
        if r % self.stride:
            return
        self.values.append(x)
        self.rounds.append(r)
        if len(self.values) >= SAMPLE_CAP:
            self.stride *= 2
            keep = [k for k, kr in enumerate(self.rounds) if kr % self.stride == 0]
            self.values = array("d", (self.values[k] for k in keep))
            self.rounds = array("q", (self.rounds[k] for k in keep))


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.errors = []
        self.failed = 0

    def record(self, wl, i: int, out=None, exc: Exception | None = None):
        """Validate operation i and count it."""
        self.attempted += 1
        error = f"{type(exc).__name__}: {exc}" if exc is not None else wl.check(i, out)
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(error)


def timed_op(wl, i: int, outcome: Outcome) -> float:
    """Run operation i, validate it outside the timed region; return seconds."""
    start = time.perf_counter()
    try:
        out = wl.run(i)
    except Exception as exc:  # a raising operation is a failed one
        elapsed = time.perf_counter() - start
        outcome.record(wl, i, exc=exc)
        return elapsed
    elapsed = time.perf_counter() - start
    outcome.record(wl, i, out)
    return elapsed


class Reference:
    """A fixed piece of work in the style of spinkin's kernels (np.block,
    eigh, complex matmul and norm on 6x6 matrices, Python loop overhead), timed
    between operations. It never changes with the program, so operation time
    divided by it cancels the host's speed, which on a shared machine drifts
    by up to 1.5x from minute to minute (see README)."""

    def __init__(self):
        import numpy as np

        self.np = np
        H = np.arange(36, dtype=float).reshape(6, 6) / 36.0 + 1j * np.eye(6)
        self.H = H + H.conj().T
        self.sample()

    def sample(self) -> float:
        np, H = self.np, self.H
        start = time.perf_counter()
        Z = np.zeros((3, 3), dtype=complex)
        acc = 0.0
        for k in range(1, 65):
            B = np.block([[H[:3, :3], Z], [Z, H[3:, 3:]]])
            w, V = np.linalg.eigh(B * (0.02 * k))
            E = (V * np.exp(w)) @ V.conj().T
            acc += float(np.linalg.norm(E @ E - np.eye(6)))
        return time.perf_counter() - start


def measure(wl, seconds: float, outcome: Outcome) -> dict:
    ref = Reference()
    refs = [ref.sample()]
    wall, relative = Thinned(), Thinned()
    pending = []  # (latency, round) since the last reference sample
    total_s = total_ref = 0.0

    def settle():
        # each operation against the mean of the reference samples around it
        nonlocal total_ref
        local = 0.5 * (refs[-2] + refs[-1])
        for lat, r in pending:
            relative.add(lat / local, r)
            total_ref += lat / local
        pending.clear()

    i = r = 0
    now = time.perf_counter()
    deadline, next_ref = now + seconds, now + REF_EVERY_S
    while True:
        for _ in range(wl.round_size):
            if time.perf_counter() >= next_ref:
                refs.append(ref.sample())
                settle()
                next_ref = time.perf_counter() + REF_EVERY_S
            lat = timed_op(wl, i, outcome)
            wall.add(lat, r)
            pending.append((lat, r))
            total_s += lat
            i += 1
        r += 1
        if time.perf_counter() >= deadline:
            break
    refs.append(ref.sample())
    settle()
    peak_rss_kb = wl.peak_rss_kb()  # before the statistics below allocate
    return {
        "ops": i,
        "p50_s": statistics.median(wall.values),
        "p90_s": statistics.quantiles(wall.values, n=10)[8],
        "ops_per_s": i / total_s,
        "p50_ref": statistics.median(relative.values),
        "ops_per_ref": i / total_ref,
        "ref_samples": len(refs),
        "ref_median_s": statistics.median(refs),
        "peak_rss_kb": peak_rss_kb,
    }


def trace(wl, seconds: float, outcome: Outcome, spans_path: Path) -> dict:
    summaries, overhead = [], []
    first_spans = None
    k = 0
    deadline = time.perf_counter() + seconds

    def one_pass(traced: bool) -> float:
        wl.trace(traced)
        try:
            return sum(timed_op(wl, i, outcome) for i in wl.pass_ops(k))
        finally:
            wl.trace(False)

    while True:
        # alternate which pass of the pair runs first, so that neither
        # carries the order's bias (a warmer cache, the host's drift)
        if k % 2 == 0:
            untraced, traced = one_pass(False), one_pass(True)
        else:
            traced, untraced = one_pass(True), one_pass(False)
        batch = wl.take_spans()
        if first_spans is None:
            first_spans = batch
        summaries.append(spans.summarize(batch))
        overhead.append(traced / untraced - 1.0)
        k += 1
        if time.perf_counter() >= deadline:
            break
    with open(spans_path, "w") as fh:
        json.dump({"names": spans.SPAN_NAMES, "spans": first_spans}, fh)
    return {"passes": k, "summaries": summaries, "overhead": overhead, "import_s": wl.import_s}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    # one CPU for the operations, the reference and (inheriting the mask) the
    # cli children: the two CPUs of a shared host run at different speeds, and
    # the ratio only cancels the host's speed when both sides share a CPU
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = workloads.make(args.workload, args.seed, args.workdir)
    outcome = Outcome()
    timed_op(wl, 0, outcome)
    print("READY", flush=True)

    result = {}
    if args.mode == "run":
        result = measure(wl, args.seconds, outcome)
    elif args.mode == "trace":
        spans_path = args.workdir / f"spans-{args.workload}-seed{args.seed}.json"
        result = trace(wl, args.seconds, outcome, spans_path)
    result.update(attempted=outcome.attempted, failed=outcome.failed, errors=outcome.errors)
    if hasattr(wl, "notes"):
        result["notes"] = wl.notes()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
