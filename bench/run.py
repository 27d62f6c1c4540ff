"""Benchmark of the `wep4` command line, run in process.

    python3 bench/run.py --workload grid-export --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  One client calls `wep4.cli.main(argv)` in a closed loop,
one operation after another, over whole passes of the workload's operation
list (bench/workloads.py) for about `--seconds`.  Interpreter and import
start-up is measured separately, in fresh interpreters, as `setup_s`.
Times are reported in reference seconds (bench/calibration.py).  After the
loop every operation's output is checked against the benchmark's own closed
forms (bench/checks.py, bench/reference.py).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` traced and untraced passes alternate and
the per-layer metrics of bench/tracing.py are reported instead.  Results and
traces are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 7   # fresh interpreters per run; setup_s is their median
IMPORT_SAMPLES = 5  # fresh interpreters per traced run, for the import layer
CHILD_TIMEOUT_S = 60


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# A fresh interpreter imports the CLI, then times the calibration kernel on
# its own core; that second part is not counted.
SETUP_CHILD = """import wep4.cli
import statistics, sys
from time import perf_counter
start = perf_counter()
sys.path.append({bench!r})
from calibration import Clock
clock = Clock()
clock.sample()
print(statistics.median(clock.took), perf_counter() - start)
"""


def setup_times() -> list[tuple[float, float]]:
    """(seconds, scale to reference seconds) of fresh interpreters importing
    the CLI, numpy included: the floor every `wep4` invocation pays."""
    from calibration import KERNEL_REF_S

    code = SETUP_CHILD.format(bench=str(BENCH))
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        seconds = perf_counter() - start
        kernel_s, kernel_phase_s = (float(x) for x in done.stdout.split())
        times.append((seconds - kernel_phase_s, KERNEL_REF_S / kernel_s))
    return times


def import_seconds() -> dict:
    """Median numpy and wep4 import times, each measured inside a fresh interpreter."""
    code = ("from time import perf_counter as t\na = t()\nimport numpy\nb = t()\n"
            "import wep4.cli\nc = t()\nprint(b - a, c - b)")
    numpy_s, wep4_s = [], []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        a, b = done.stdout.split()
        numpy_s.append(float(a))
        wep4_s.append(float(b))
    return {"import.numpy_s": statistics.median(numpy_s),
            "import.wep4_s": statistics.median(wep4_s)}


def call(main, argv) -> tuple[int, str, float, float]:
    """One operation, `main(argv)` with stdout and stderr captured:
    (exit code, stdout, start, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except Exception as exc:  # a traceback is a failed operation, not a crash of the run
            print(f"{type(exc).__name__}: {exc}", file=sys.__stderr__)
            rc = -1
    return rc, out.getvalue(), start, perf_counter() - start


def passes(seconds: float):
    """Yield once per whole pass, for as many passes as end nearest to
    `seconds` from the first (at least one)."""
    start = perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / done >= seconds:
            return


class Loop:
    """Closed-loop client over whole passes; keeps what the checks need."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list = [None] * len(ops)  # (rc, stdout) of the first pass
        self.timed: list[tuple] = []  # (start, seconds, exited 0) per operation
        self.failed = 0
        self.unsteady = 0  # later passes whose stdout differs from the first

    @property
    def attempted(self) -> int:
        return len(self.timed)

    def run_pass(self, main, clock=None) -> float:
        busy = 0.0
        for i, op in enumerate(self.ops):
            rc, out, start, dt = call(main, op.argv)
            if clock is not None:
                clock.after(dt)
            busy += dt
            self.timed.append((start, dt, rc == 0))
            self.failed += rc != 0
            if self.first[i] is None:
                self.first[i] = (rc, out)
            elif self.first[i] != (rc, out):
                self.unsteady += 1
        return busy


def check_outputs(loop: Loop) -> bool:
    from checks import Checker

    checker = Checker()
    ok = loop.unsteady == 0
    if not ok:
        print(f"{loop.unsteady} operations printed differently on a later pass", file=sys.stderr)
    for op, (rc, out) in zip(loop.ops, loop.first):
        if rc != 0:
            print(f"failed (rc {rc}): {' '.join(op.argv)}", file=sys.stderr)
            continue
        try:
            problems = checker.check(op, out)
        except Exception as exc:  # output the checks cannot read is incorrect output
            problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
        for problem in problems:
            print(f"incorrect: {' '.join(op.argv)}: {problem}", file=sys.stderr)
        ok &= not problems
    return ok


def timed_loop(loop: Loop, cli, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics in reference seconds, and the same figures in
    wall-clock seconds with the kernel's median time."""
    from calibration import Clock

    setup = setup_times()
    clock = Clock()
    gc.collect()
    clock.sample()
    for _ in passes(seconds):
        loop.run_pass(cli.main, clock)
    clock.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def summary(scaled: bool) -> dict:
        def ref(start, dt):
            return dt * clock.scale(start, dt) if scaled else dt

        ok = [ref(start, dt) for start, dt, passed in loop.timed if passed]
        busy = sum(ref(start, dt) for start, dt, _ in loop.timed)
        return {
            "setup_s": {"value": statistics.median(t * k if scaled else t for t, k in setup),
                        "unit": "s"},
            "ops_per_s": {"value": len(ok) / busy, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(ok), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    wall = summary(scaled=False)
    wall["kernel_s"] = {"value": statistics.median(clock.took), "unit": "s"}
    return summary(scaled=True), wall


def traced_loop(loop: Loop, cli, seconds: float, tag: str) -> dict:
    """Alternate untraced and traced passes; per-layer metrics come from the
    traced ones, the overhead from comparing the two.  Times are wall time."""
    from tracing import Tracer

    imports = import_seconds()
    tracer = Tracer()
    main = tracer.wrap(cli.main, "cli.main")

    def traced_main(argv):
        try:
            return main(argv)
        finally:
            tracer.end_op()

    gc.collect()
    plain_s = traced_s = 0.0
    for _ in passes(seconds):
        plain_s += loop.run_pass(cli.main)
        tracer.install()
        try:
            traced_s += loop.run_pass(traced_main)
        finally:
            tracer.uninstall()
    tracer.write(OUT / f"trace-{tag}.jsonl")
    return tracer.metrics(tracer.op, imports, 100.0 * (traced_s / plain_s - 1.0))


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(the result line, the wall-clock figures)."""
    from wep4 import cli

    work = OUT / f"work-{workload}-{os.getpid()}"
    (work / "warm").mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(workload, seed, work)
        for op in workloads.warmup(workload, work):
            call(cli.main, op.argv)
        loop = Loop(ops)
        if trace:
            metrics, wall = traced_loop(loop, cli, seconds, f"{workload}-s{seed}"), {}
        else:
            metrics, wall = timed_loop(loop, cli, seconds)
        correct = check_outputs(loop)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    return result, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wep4" / "cli.py").is_file():
        print(f"bench: no program sources at {SRC}; run from a wep4 checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import wep4

    if Path(wep4.__file__).resolve().parent != SRC / "wep4":
        print(f"bench: imported wep4 from {wep4.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result, wall = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    record = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    record.write_text(json.dumps({**result, "wall": wall}) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
