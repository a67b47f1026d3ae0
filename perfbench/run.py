"""siftlab benchmark: one workload, measured for a fixed time, checked for correctness.

    python3 perfbench/run.py --workload hist --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each iteration runs the workload in a
fresh `python3 perfbench/child.py` process (a closed loop of one client:
the next iteration starts when the previous one has exited) until
`--seconds` have passed.  Every iteration's output is checked; a nonzero
exit, an exception or a wrong result counts as failed.

With `--trace 0` the end-to-end metrics are medians over the iterations.
With `--trace 1` untraced and traced iterations alternate; the per-module
metrics are medians over the traced ones, `trace.overhead_s` is the traced
minus the untraced median wall time, and the spans of the last traced
iteration are written to `.perfbench/trace-<workload>-seed<seed>.json`.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it print every metric with its unit, and the
error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 120.0

E2E_UNITS = {"wall_s": "s", "ints_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def run_child(spec: dict) -> dict:
    """Run one iteration; wall time, CPU time and peak RSS come from outside the child."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)],
                            stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    status = None
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
        if status is None:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "t0": t0, "wall_s": wall, "out": out,
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0}


class Iterations:
    """Runs iterations, measures each, and checks each against the oracle."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.checker = workloads.Checker(inputs)
        self.started = {False: 0, True: 0}
        self.attempted = 0
        self.failed = 0
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.last_spans: list[dict] = []

    def run(self, trace: bool) -> None:
        # traced and untraced iterations each cycle through the inputs on their own
        index = self.started[trace]
        self.started[trace] += 1
        r = run_child(workloads.child_spec(self.inputs, index, trace))
        self.attempted += 1
        problem = self._problem(r)
        if problem:
            self.failed += 1
            print(f"iteration {self.attempted} failed: {problem}", file=sys.stderr)
            return
        result = r["result"]
        setup = result["t_ready"] - r["t0"]
        sample = {
            "wall_s": r["wall_s"],
            "setup_s": setup,
            "ints_per_s": self.inputs["ints"] / (r["wall_s"] - setup),
            "cpu_s": r["cpu_s"],
            "peak_rss_mb": r["peak_rss_mb"],
            "exit_s": r["t0"] + r["wall_s"] - result["t_done"],
        }
        if trace:
            spans = result["spans"]
            layers = sample["layers"] = tracer.layer_metrics(spans)
            layers["trace.exit_s"] = sample["exit_s"]
            layers["trace.unaccounted_s"] = (r["wall_s"] - setup - sample["exit_s"]
                                             - layers["trace.top_spans_s"])
            self.traced.append(sample)
            self.last_spans = spans
        else:
            self.untraced.append(sample)

    def _problem(self, r: dict) -> str | None:
        if r["returncode"] != 0:
            return f"child exited with {r['returncode']}"
        try:
            r["result"] = json.loads(r["out"].decode().strip().splitlines()[-1])
            problems = self.checker.problems(r["result"])
        except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
            return f"unreadable result: {exc!r}"
        if problems:
            return f"{len(problems)} mismatches, first: {problems[0]}"
        return None


def write_spans(workload: str, seed: int, spans: list[dict]) -> str:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(spans, fh, indent=1)
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn a termination request into SystemExit so a running child is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "siftlab", "__init__.py")):
        print(f"no siftlab source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    its = Iterations(inputs)
    warm = run_child({"kind": "warmup", "trace": False})  # compiles bytecode, warms file cache
    if warm["returncode"] != 0:
        print("warm-up child failed", file=sys.stderr)
        return 1
    # the oracle's first use (sympy import, factorizations) stays outside the timed loop
    its.checker.prepare()

    start = time.monotonic()
    while True:
        its.run(trace=False)
        if args.trace:
            its.run(trace=True)
        if time.monotonic() - start >= args.seconds:
            break

    if args.trace:
        if not (its.untraced and its.traced):
            metrics = {}
        else:
            layer_names = its.traced[0]["layers"].keys()
            metrics = {n: statistics.median(s["layers"][n] for s in its.traced)
                       for n in layer_names}
            metrics["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in its.traced)
                                           - statistics.median(s["wall_s"] for s in its.untraced))
            path = write_spans(args.workload, args.seed, its.last_spans)
            print(f"spans of the last traced iteration: {os.path.relpath(path, ROOT)}")
        units = {n: tracer.unit(n) for n in metrics}
    else:
        metrics = {n: statistics.median(s[n] for s in its.untraced)
                   for n in E2E_UNITS} if its.untraced else {}
        units = E2E_UNITS

    n_ok = len(its.traced if args.trace else its.untraced)
    print(f"workload {args.workload}, seed {args.seed}: {its.attempted} iterations, "
          f"medians over {n_ok}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6f} {units[name]}")
    print(f"  {'error_rate':34s} {its.failed / its.attempted:16.6f} fraction")
    report = {
        "correct": its.failed == 0,
        "attempted": its.attempted,
        "failed": its.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
