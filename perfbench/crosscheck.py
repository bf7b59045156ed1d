"""Cross-check the span wrappers against cProfile on one `check all`.

    python3 perfbench/crosscheck.py [--seed 42]

Runs `spinkin check all --seed N` once, in-process, with cProfile enabled and
the span wrappers of spans.py installed, and compares, for every wrapped
function, the number of spans recorded with the number of calls cProfile
counted for the original function. A wrapper that missed a namespace shows
as a shortfall. Prints one line per function and exits 1 on any mismatch.
Run it from the root of a source checkout.
"""

import argparse
import contextlib
import cProfile
import io
import pstats
import sys
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description="span counts vs cProfile for one check all")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import spinkin.cli

    originals = {name: fn.__code__ for name in spans.SPAN_NAMES if (fn := spans.resolve(name))}

    tracer = spans.Tracer()
    tracer.install()
    profile = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        profile.enable()
        try:
            code = spinkin.cli.main(["check", "all", "--seed", str(args.seed)])
        finally:
            profile.disable()
            tracer.remove()
    traced = spans.summarize(tracer.take())

    profiled = {}
    for (filename, line, fn), stat in pstats.Stats(profile).stats.items():
        profiled[(filename, line, fn)] = stat[1]  # total calls, recursive included
    mismatches = 0
    for name, code_obj in originals.items():
        want = profiled.get((code_obj.co_filename, code_obj.co_firstlineno, code_obj.co_name), 0)
        got = traced.get(f"{name}.calls", 0)
        mismatches += got != want
        print(f"{name:40s} spans {got:7d} cProfile {want:7d} {'ok' if got == want else 'MISMATCH'}")
    print(f"check all --seed {args.seed} exited {code}; {mismatches} mismatches")
    return 1 if mismatches or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
