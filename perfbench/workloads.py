"""The three benchmark workloads.

Each workload is a closed loop with one client: operation `i` runs only after
operation `i - 1` has returned. `run(i)` is the timed part (calls into
spinkin only); `check(i, out)` validates its output afterwards and returns an
error message or None. `pass_ops(k)` lists the operations of traced pass `k`,
a fixed unit whose call counts depend only on the seed.

spinkin is imported when a workload is constructed, never at module import,
so that set-up time includes it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent


class _InProcess:
    """Shared tracing plumbing for workloads that call spinkin in this process."""

    def __init__(self):
        start = time.perf_counter()
        import spinkin  # noqa: F401
        import spinkin.cli  # noqa: F401

        self.import_s = [time.perf_counter() - start]
        self.tracer = spans.Tracer()

    def trace(self, on: bool):
        if on:
            self.tracer.install()
        else:
            self.tracer.remove()

    def take_spans(self):
        return self.tracer.take()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CheckAll(_InProcess):
    """`spinkin.cli.main(["check", "all", "--seed", s])` in-process, stdout
    captured. Seeds run in pairs (s, s) so the second run of each seed can be
    compared byte for byte with the first; s = seed, seed + 1, ..."""

    round_size = 2
    setups = 3

    def __init__(self, seed: int):
        super().__init__()
        self.cli = sys.modules["spinkin.cli"]
        self.seed = seed
        self._first = (None, None)  # (seed, stdout) of the last seed's first run

    def _seed(self, i: int) -> int:
        return self.seed + i // 2

    def run(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(["check", "all", "--seed", str(self._seed(i))])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, i: int, out):
        code, stdout = out
        seed = self._seed(i)
        if code != 0:
            return f"check all --seed {seed} exited {code}"
        if json.loads(stdout).get("pass") is not True:
            return f"check all --seed {seed} reported pass=false"
        if self._first[0] != seed:
            self._first = (seed, stdout)
        elif stdout != self._first[1]:
            return f"check all --seed {seed} stdout differs from its first run"
        return None

    def pass_ops(self, k: int):
        # one check all at seed + k; the untraced and traced passes share it,
        # so the traced stdout is also compared with the untraced one
        return [2 * k]


class KernelSweep(_InProcess):
    """Operator factories over seeded momenta: for each 2j in {1,2,3,4},
    1000 momenta from `sample_momenta`; one operation is
    `parity_operator(rep, q)`, `boosted_spinors(j, q)` and
    `field_equation_residual` on one u and one v spinor. Spins are
    interleaved (operation i has 2j = 1 + i % 4), so every whole round has
    the same spin mix.

    `P^2 = I` is judged against the scale of its roundoff,
    ||P^2 - I||_F <= tol_involution * ||P||_F^2. At 2j=4 near
    `sample_momenta`'s cap (phi = 2.31) ||P||_F reaches 1.5e4, and there
    involution_suite's absolute 1e-7 is about 2 eps ||P||_F^2: operators
    accurate to 6e-15 relative fail it on about one seed in forty. The
    relative bound is the tighter of the two wherever ||P||_F < 3162. The
    absolute criterion is still counted (`notes()`), not failed."""

    round_size = 4
    setups = 9
    per_spin = 1000
    tol_involution = 1e-14  # on ||P^2-I||_F / ||P||_F^2; worst seen 9.9e-16
    abs_involution = 1e-7  # involution_suite default, counted in notes()
    tol_field_equation = 1e-9  # field_equation_suite default

    def __init__(self, seed: int):
        super().__init__()
        import numpy as np
        import spinkin.dirac
        import spinkin.higherspin
        import spinkin.kinematics
        from spinkin.reps import HalfInt, rep_generators

        self.np = np
        # modules, not functions, so that calls go through the traced bindings
        self.kin, self.dirac, self.hs = spinkin.kinematics, spinkin.dirac, spinkin.higherspin
        self.seed = seed
        self.labels = {t: HalfInt(t) for t in spans.SPINS}
        self.reps = {t: rep_generators(self.labels[t]) for t in spans.SPINS}
        self.eye = {t: np.eye(self.labels[t].dim) for t in spans.SPINS}
        self.abs_exceeded, self.worst_abs = {}, 0.0  # momentum -> operations
        self.draw()

    def draw(self):
        """Draw the seeded momenta, one `sample_momenta` call per spin."""
        rng = self.np.random.default_rng(self.seed)
        self.momenta = {t: self.kin.sample_momenta(rng, self.per_spin) for t in spans.SPINS}

    def _input(self, i: int):
        twice = spans.SPINS[i % 4]
        return twice, self.momenta[twice][(i // 4) % self.per_spin]

    def run(self, i: int):
        twice, q = self._input(i)
        j = self.labels[twice]
        P = self.kin.parity_operator(self.reps[twice], q)
        basis = self.dirac.boosted_spinors(j, q)
        r_u = self.hs.field_equation_residual(j, basis.u[0], q, +1)
        r_v = self.hs.field_equation_residual(j, basis.v[0], q, -1)
        return P, r_u, r_v

    def check(self, i: int, out):
        P, r_u, r_v = out
        twice, q = self._input(i)
        sq = float(self.np.linalg.norm(P @ P - self.eye[twice]))
        scale = float(self.np.linalg.norm(P)) ** 2
        if not sq <= self.tol_involution * scale:
            return f"2j={twice} p={q.p}: ||P^2-I||_F = {sq:.3e}, / ||P||_F^2 = {sq / scale:.3e}"
        self.worst_abs = max(self.worst_abs, sq)
        if sq > self.abs_involution:
            key = f"2j={twice} m={q.m!r} p={q.p!r}"
            self.abs_exceeded[key] = self.abs_exceeded.get(key, 0) + 1
        if not max(r_u, r_v) <= self.tol_field_equation:
            return f"2j={twice} p={q.p}: field-equation residual {max(r_u, r_v):.3e}"
        return None

    def notes(self) -> dict:
        return {
            "worst_abs_involution": self.worst_abs,
            "abs_involution_exceeded": self.abs_exceeded,
        }

    def pass_ops(self, k: int):
        # a pass redraws the momenta (so sample_momenta is traced) and
        # processes every (spin, momentum) pair once
        self.draw()
        return range(4 * self.per_spin)


CLI_COMMANDS = (
    ("parity", "--spin", "2", "--mass", "1", "--p", "0.3,0,0.5", "--json"),
    ("spinors", "--spin", "4", "--mass", "1", "--p", "0,0,0.75", "--json"),
    ("elko", "g", "--u", "1,0", "--v", "0,1", "--json"),
    ("decompose", "--mass", "1", "--p", "0.2,0,0.5", "--basis", "helicity", "--json"),
    ("check", "kinematic", "--spin", "2", "--samples", "50", "--tol", "1e-7"),
    ("elko", "nogo", "--samples", "10000", "--seed", "20240811"),
)


class CliOneshot:
    """One fresh `python -m spinkin ...` child per operation, cycling through
    `CLI_COMMANDS` from the first, so that set-up always times the same
    command; the list is fixed and takes nothing from the seed. Traced, each
    child is started through launch.py, which installs the same span
    wrappers and hands its spans back in a file under `workdir`."""

    round_size = len(CLI_COMMANDS)
    setups = 9

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.traced = False
        self.import_s = []
        self._spans = []

    def trace(self, on: bool):
        self.traced = on

    def _argv(self, i: int):
        return CLI_COMMANDS[i % len(CLI_COMMANDS)]

    def run(self, i: int):
        argv = self._argv(i)
        if not self.traced:
            proc = subprocess.run(
                [sys.executable, "-m", "spinkin", *argv], capture_output=True, text=True, timeout=120
            )
            return proc.returncode, proc.stdout, proc.stderr, None
        fd, path = tempfile.mkstemp(dir=self.workdir, suffix=".spans.json")
        os.close(fd)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "launch.py"), path, *argv],
                capture_output=True,
                text=True,
                timeout=120,
            )
            trace = Path(path).read_text()
        finally:
            os.unlink(path)
        return proc.returncode, proc.stdout, proc.stderr, trace

    def check(self, i: int, out):
        code, stdout, stderr, trace = out
        argv = " ".join(self._argv(i))
        if trace:
            record = json.loads(trace)
            self.import_s.append(record["import_s"])
            base = len(self._spans)
            self._spans.extend(
                (index, start, end, parent + base if parent >= 0 else -1, tag)
                for index, start, end, parent, tag in record["spans"]
            )
        if code != 0:
            return f"spinkin {argv} exited {code}: {stderr.strip()[-200:]}"
        if "--json" in self._argv(i):
            try:
                payload = json.loads(stdout)
            except ValueError:
                return f"spinkin {argv} printed invalid JSON"
            if payload.get("schema_version") != 1:
                return f"spinkin {argv}: schema_version is {payload.get('schema_version')!r}"
        return None

    def take_spans(self):
        out, self._spans = self._spans, []
        return out

    def pass_ops(self, k: int):
        return range(k * self.round_size, (k + 1) * self.round_size)

    def peak_rss_kb(self) -> int:
        # the children do the work; RUSAGE_CHILDREN holds the largest one's peak
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


WORKLOADS = {"check_all": CheckAll, "kernel_sweep": KernelSweep, "cli_oneshot": CliOneshot}


def make(name: str, seed: int, workdir: Path):
    if name == "cli_oneshot":
        return CliOneshot(workdir)
    return WORKLOADS[name](seed)
