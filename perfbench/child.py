"""One iteration of a perfbench workload, in a fresh interpreter.

run.py starts `python3 perfbench/child.py '<spec json>'` once per iteration
and times it from the outside.  The child parses its spec, imports siftlab
from the checkout's `src`, optionally installs the tracer, notes the
monotonic time just before its first library call, runs the workload, notes
the time again and prints one JSON line: both times, the outputs run.py
checks, and with tracing on, the recorded spans.  A library exception exits with code 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _run_cli(spec, cli) -> dict:
    outputs = []
    for argv in spec["argvs"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.dispatch(argv)
        if code != 0:
            raise RuntimeError(f"siftlab {' '.join(argv)} returned {code}")
        outputs.append(buf.getvalue())
    return {"outputs": outputs}


def _run_kernels(spec, tracer) -> dict:
    from math import isqrt

    from siftlab import bulk, multfunc, specs

    width = spec["width"]
    top = max(w["lo"] for w in spec["windows"]) + width
    primes = bulk.primes_upto(isqrt(top - 1))
    sel = specs.parse_primeset("mod:4:1")
    musq = multfunc.builtin("musq")
    calls = {
        "flags": lambda lo, hi: bulk.flags_window(lo, hi, primes),
        "spf": lambda lo, hi: bulk.spf_window(lo, hi, primes),
        "omega": lambda lo, hi: bulk.counts_window(lo, hi, primes, "omega"),
        "bigomega_sel": lambda lo, hi: bulk.counts_window(lo, hi, primes, "bigomega", sel),
        "mult_musq": lambda lo, hi: bulk.mult_window(lo, hi, primes, musq.rule, musq.at_primes),
        "sigma": lambda lo, hi: bulk.sigma_window(lo, hi),
        "lambda": lambda lo, hi: bulk.lambda_window(lo, hi, primes),
        "lpf": lambda lo, hi: bulk.lpf_window(lo, hi, primes),
    }
    values = {}
    for w in spec["windows"]:
        lo, pos = w["lo"], w["positions"]
        got = {}
        values[w["tag"]] = {"lo": lo, "kernels": got}
        for kernel, call in calls.items():
            span = tracer.span(f"kernels.{kernel}.{w['tag']}") if tracer else contextlib.nullcontext()
            with span:
                arr = call(lo, lo + width)
                got[kernel] = arr[pos].tolist()
    return {"values": values}


def main() -> None:
    spec = json.loads(sys.argv[1])
    import siftlab.cli as cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_ready = time.monotonic()
    try:
        if spec["kind"] == "cli":
            out = _run_cli(spec, cli)
        elif spec["kind"] == "kernels":
            out = _run_kernels(spec, tracer)
        elif spec["kind"] == "warmup":
            out = {}
        else:
            raise ValueError(f"unknown spec kind {spec['kind']!r}")
    except Exception:  # the run counts as failed; run.py reports the traceback
        traceback.print_exc()
        sys.exit(1)
    out["t_done"] = time.monotonic()
    out["t_ready"] = t_ready
    if tracer is not None:
        out["spans"] = tracer.export()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
