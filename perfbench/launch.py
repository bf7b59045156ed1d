"""Traced stand-in for `python -m spinkin`.

    python3 perfbench/launch.py SPANS_FILE ARGS...

Times `import spinkin`, installs the span wrappers of spans.py, runs
`spinkin.cli.main(ARGS)` with the real stdout and stderr, writes the import
time and the recorded spans to SPANS_FILE as JSON, and exits with main's code.
"""

import json
import sys
import time

import spans

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import spinkin  # noqa: F401
    import spinkin.cli

    import_s = time.perf_counter() - start
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = spinkin.cli.main(argv)
    finally:
        tracer.remove()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.take()}, fh)
    sys.exit(code)
