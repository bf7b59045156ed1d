"""spinkin benchmark: end-to-end metrics (untraced) or per-layer metrics (traced).

    python3 perfbench/run.py --workload {check_all,kernel_sweep,cli_oneshot} \
        --seed N --seconds T --trace {0,1}

Run from the root of a source checkout; spinkin is imported from ./src. The
workloads and metrics are described in perfbench/README.md. The last stdout
line is {"correct", "attempted", "failed", "metrics"}; the line before it is
the environment record. The full result, with the metrics under the names
used in the roadmap, is also written to perfbench/out/.

--trace 0 starts `setups` fresh worker processes one after another and times
each from process start to the end of its first, untimed operation
(`setup_s` is their median); the last one then measures for --seconds.
--trace 1 starts one worker that alternates untraced and traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# a worker is killed this long after its start beyond --seconds: set-up,
# the last round and the statistics take well under it
WORKER_MARGIN_S = 140

# per-spin latency metrics "<span>.2j<k>.us_per_call"
PER_SPIN = ("kinematics.parity_operator", "dirac.boosted_spinors", "higherspin.field_equation_residual")

# span counters that must be non-zero on each workload: the layers assigned
# to the workload, restricted to the functions its operations call
_KERNEL_CALLS = (
    "linalg.expm_hermitian",
    "reps.rep_generators",
    "reps.spin_matrices",
    "kinematics.parity_operator",
    "kinematics.boost_matrix",
    "kinematics.rapidity_from_momentum",
    "kinematics.sample_momenta",
    "dirac.boosted_spinors",
    "higherspin.field_equation_residual",
)
REQUIRED = {
    "check_all": spans.SPAN_NAMES,
    "kernel_sweep": _KERNEL_CALLS + tuple(f"{n}.2j{t}" for n in PER_SPIN for t in spans.SPINS),
    "cli_oneshot": (
        "cli.main",
        "reps.rep_generators",
        "kinematics.parity_operator",
        "kinematics.is_fully_kinematic",
        "dirac.boosted_spinors",
        "higherspin.field_equation_residual",
        "elko.nogo_monte_carlo",
        "elko.schur_conditions",
        "elko.g_operator",
        "decomposition.decomposition_residual",
        "decomposition.xi_tilde_at_rest",
        "decomposition.k_operator",
    ),
}

# roadmap names of the end-to-end metrics, per workload: (name, source, scale)
NAMED = {
    "check_all": (("check_all_s", "op_p50_ms", 1e-3),),
    "kernel_sweep": (
        ("kernel_momenta_per_s", "ops_per_s", 1.0),
        ("kernel_p50_us", "op_p50_ms", 1e3),
        ("kernel_p90_us", "op_p90_ms", 1e3),
    ),
    "cli_oneshot": (("cli_p50_ms", "op_p50_ms", 1.0), ("cli_p90_ms", "op_p90_ms", 1.0)),
}

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(args, mode: str) -> tuple[float, dict]:
    """Run one worker; return (seconds from start to READY, its result)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", str(OUT),
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT) as proc:
        watchdog = threading.Timer(args.seconds + WORKER_MARGIN_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            lines = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if ready.strip() != "READY" or code != 0 or not lines:
        raise RuntimeError(f"worker {mode} failed with exit code {code}")
    return setup_s, json.loads(lines[-1])


def end_to_end(args) -> tuple[dict, dict]:
    setups, attempted, failed, errors = [], 0, 0, []
    n = workloads.WORKLOADS[args.workload].setups
    for k in range(n):
        setup_s, res = spawn(args, "run" if k == n - 1 else "setup")
        setups.append(setup_s)
        attempted += res["attempted"]
        failed += res["failed"]
        errors += res["errors"]
    metrics = {
        "op_p50_ref": (res["p50_ref"], "ref"),
        "ops_per_ref": (res["ops_per_ref"], "1/ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    # wall-clock figures are recorded but not bounded: on a shared host they
    # follow the host's speed more than the program's (see README)
    detail = {
        "op_p50_ms": res["p50_s"] * 1e3,
        "op_p90_ms": res["p90_s"] * 1e3,
        "ops_per_s": res["ops_per_s"],
        "ref_median_ms": res["ref_median_s"] * 1e3,
        "ref_samples": res["ref_samples"],
        "setup_samples_s": setups,
        "ops_timed": res["ops"],
        "errors": errors,
        "notes": res.get("notes", {}),
    }
    return metrics, {"attempted": attempted, "failed": failed, **detail}


def per_layer(args) -> tuple[dict, dict]:
    _, res = spawn(args, "trace")
    summaries = res["summaries"]
    first = summaries[0]

    def med(key):
        return statistics.median(s.get(key, 0.0) for s in summaries)

    metrics = {}
    for name in spans.FUNCTIONS:
        metrics[f"{name}.calls"] = (first.get(f"{name}.calls", 0), "count")
        metrics[f"{name}.self_s"] = (med(f"{name}.self_s"), "s")
    for name in PER_SPIN:
        for t in spans.SPINS:
            key = f"{name}.2j{t}"
            per_call = [
                s[f"{key}.total_s"] / s[f"{key}.calls"] * 1e6 for s in summaries if s.get(f"{key}.calls")
            ]
            metrics[f"{key}.us_per_call"] = (statistics.median(per_call) if per_call else 0.0, "us")
    rebuilt_spins = sum(1 for t in spans.SPINS if first.get(f"reps.rep_generators.2j{t}.calls"))
    metrics["reps.rep_generators.rebuilds_per_spin"] = (
        first.get("reps.rep_generators.calls", 0) / max(rebuilt_spins, 1),
        "calls/spin",
    )
    for name in spans.SUITE_SPANS:
        metrics[f"{name}.s"] = (med(f"{name}.total_s"), "s")
    metrics["cli.main.self_s"] = (med("cli.main.self_s"), "s")
    metrics["import.s"] = (statistics.median(res["import_s"]), "s")
    metrics["trace.overhead_frac"] = (statistics.median(res["overhead"]), "ratio")

    zero = [n for n in REQUIRED[args.workload] if not first.get(f"{n}.calls")]
    detail = {
        "passes": res["passes"],
        "overhead_per_pass": res["overhead"],
        "coverage_zero": zero,
        "errors": res["errors"] + [f"counter {n}.calls is 0 on {args.workload}" for n in zero],
        "notes": res.get("notes", {}),
    }
    return metrics, {"attempted": res["attempted"], "failed": res["failed"], **detail}


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            # look no further up than the checkout itself
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": BLAS_THREADS,
        "dim_by_2j": {f"2j{t}": 2 * (t + 1) for t in spans.SPINS},
    }


def expected_names(trace: int):
    """Metric names BENCHMARK.json declares for this mode, or None without it."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    ap = argparse.ArgumentParser(description="spinkin benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "spinkin" / "__init__.py").is_file():
        print(f"error: no spinkin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    metrics, detail = per_layer(args) if args.trace else end_to_end(args)
    want = expected_names(args.trace)
    if want is not None and sorted(want) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(want)}", file=sys.stderr)
        return 1
    correct = detail["failed"] == 0 and not detail.get("coverage_zero")
    for error in detail["errors"]:
        print(f"FAILED: {error}", file=sys.stderr)

    env = environment()
    named = {
        name: detail[src] * scale for name, src, scale in NAMED[args.workload] if src in detail
    }
    named["failed_frac"] = detail["failed"] / detail["attempted"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named": named,
        "detail": detail,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"environment": env, "named": named, "result_file": str(out_file.relative_to(ROOT))}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
