"""Span tracer that times calls into siftlab from outside the library.

`install` wraps public functions and methods of the siftlab modules and
rebinds each wrapped function under every name that refers to it in a
loaded siftlab module, so a call through `hist.values_upto` (imported by
name) records exactly like one through `multfunc.values_upto`.  The library
source is not edited.

Spans nest per thread.  A span opened on a worker thread with nothing open
on that thread takes the main thread's innermost open span as its parent:
the main thread is blocked inside the range call that handed out the
windows.  Hot per-integer methods are tallied (calls and time) into the
enclosing span instead of getting a span each.

`layer_metrics` turns the recorded spans into the per-module metrics that
BENCHMARK.json lists under `per_layer`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time

from workloads import KERNELS, WINDOW_BASES

# (module, attribute) pairs timed as spans; "Class.method" names a method.
SPAN_TARGETS = [
    ("cli", "dispatch"),
    ("arith", "PrimeTable.__init__"),
    ("arith", "FactorWindow.__init__"),
    ("sift", "sift"),
    ("bulk", "flags_window"),
    ("bulk", "spf_window"),
    ("bulk", "counts_window"),
    ("bulk", "mult_window"),
    ("bulk", "sigma_window"),
    ("bulk", "lambda_window"),
    ("bulk", "lpf_window"),
    ("bulk", "counts_range"),
    ("bulk", "mult_range"),
    ("bulk", "sigma_range"),
    ("bulk", "lpf_range"),
    ("multfunc", "values_upto"),
    ("multfunc", "mertens_sum"),
    ("multfunc", "hr_constant"),
    ("hist", "weighted_histogram"),
    ("hist", "hr_ratio"),
    ("egps", "egps_deviation"),
    ("table", "table_count"),
    ("table", "sifted_table_sum"),
    ("shifted", "lambda_image_intersection"),
    ("shifted", "shifted_divisor_count"),
]

# Called once per integer in the loop workloads: tallied, not spanned.
TALLY_TARGETS = [("arith", "FactorWindow.factorize")]


def _work_counts(name: str, args, result) -> dict | None:
    """Work counts recorded on a span: integers and bytes for bulk arrays, table limits."""
    if name.startswith("bulk."):
        # a range array has length x + 1 and covers x integers; a window covers its length
        n = len(result) - 1 if name.endswith("_range") else len(result)
        return {"ints": n, "bytes_out": int(result.nbytes)}
    if name == "arith.PrimeTable":
        return {"limit": int(args[0].limit)}
    return None


class Tracer:
    """Spans kept in memory: name, start, end, parent index, counts, tallies."""

    def __init__(self):
        self.spans: list[dict] = []
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def open(self, name: str) -> int:
        stack = self._stack()
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._current(stack), "counts": {}, "tally": {}}
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span["start"] = time.perf_counter()
        return index

    def close(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        self._stack().pop()
        if counts:
            span["counts"] = counts

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add_tally(self, key: str, seconds: float) -> None:
        parent = self._current(self._stack())
        if parent is None:
            return
        with self._lock:
            tally = self.spans[parent]["tally"]
            calls, total = tally.get(key, (0, 0.0))
            tally[key] = (calls + 1, total + seconds)

    # ------------------------------------------------------------ wrapping

    def _span_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                counts = _work_counts(name, args, result)
                return result
            finally:
                self.close(index, counts)

        return wrapper

    def _tally_wrapper(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add_tally(key, time.perf_counter() - t0)

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it wherever a siftlab module names it."""
        loaded = [m for n, m in sys.modules.items()
                  if n == "siftlab" or n.startswith("siftlab.")]
        for targets, make in ((SPAN_TARGETS, self._span_wrapper),
                              (TALLY_TARGETS, self._tally_wrapper)):
            for module, attr in targets:
                mod = sys.modules[f"siftlab.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    label = f"{module}.{cls_name}" if meth == "__init__" else f"{module}.{attr}"
                    setattr(cls, meth, make(cls.__dict__[meth], label))
                    continue
                fn = getattr(mod, attr)
                wrapped = make(fn, f"{module}.{attr}")
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)

    def export(self) -> list[dict]:
        """Spans with times relative to the first span and self time added."""
        spans = self.spans
        if not spans:
            return []
        base = min(s["start"] for s in spans)
        self_times = self_seconds(spans)
        return [{"name": s["name"], "start": s["start"] - base, "end": s["end"] - base,
                 "parent": s["parent"], "self_s": self_times[i], "counts": s["counts"],
                 "tally": {k: list(v) for k, v in s["tally"].items()}}
                for i, s in enumerate(spans)]


# ---------------------------------------------------------------- analysis

def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.startswith("bulk.window_ms."):
        return "ms"
    return "s" if metric.endswith("_s") else "count"


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_seconds(spans: list[dict]) -> list[float]:
    """Span duration minus the time its child spans and tallies cover.

    Children on worker threads can overlap each other, so the covered time
    is the length of the union of their intervals, clipped to the parent.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(spans[c]["start"], s["start"]), min(spans[c]["end"], s["end"]))
                   for c in children[i]]
        covered = _union_length([iv for iv in clipped if iv[1] > iv[0]])
        tallied = sum(t for _, t in s["tally"].values())
        out.append(s["end"] - s["start"] - covered - tallied)
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-module metrics of one traced run, keyed as in BENCHMARK.json.

    Metrics of modules the workload never calls read 0.
    """
    dur = [s["end"] - s["start"] for s in spans]
    self_s = self_seconds(spans)
    names = [s["name"] for s in spans]

    def ancestors(i: int):
        p = spans[i]["parent"]
        while p is not None:
            yield p
            p = spans[p]["parent"]

    def outermost(i: int, prefix: str) -> bool:
        return not any(names[a].startswith(prefix) for a in ancestors(i))

    def total(match, values=dur, prefix: str | None = None) -> float:
        return float(sum(values[i] for i in range(len(spans)) if match(names[i])
                         and (prefix is None or outermost(i, prefix))))

    def count(match, key: str, prefix: str | None = None, under: str | None = None) -> int:
        return int(sum(spans[i]["counts"].get(key, 0) for i in range(len(spans))
                       if match(names[i])
                       and (prefix is None or outermost(i, prefix))
                       and (under is None or any(names[a] == under for a in ancestors(i)))))

    def tally(key: str, field: int) -> float:
        return sum(s["tally"].get(key, (0, 0.0))[field] for s in spans)

    def bulk_family(*kinds):
        fams = {f"bulk.{k}_range" for k in kinds} | {f"bulk.{k}_window" for k in kinds}
        return total(lambda n: n in fams, prefix="bulk.")

    is_bulk_call = lambda n: n.startswith("bulk.") and n.endswith(("_range", "_window"))
    factorize = "arith.FactorWindow.factorize"
    m = {
        "arith.prime_table_s": total(lambda n: n == "arith.PrimeTable"),
        "arith.prime_table_limit": count(lambda n: n == "arith.PrimeTable", "limit"),
        "arith.factor_window_s": total(lambda n: n == "arith.FactorWindow") + tally(factorize, 1),
        "arith.factorizations": int(tally(factorize, 0)),
        "sift.realize_s": total(lambda n: n == "sift.sift"),
        "bulk.counts_s": bulk_family("counts"),
        "bulk.mult_s": bulk_family("mult"),
        "bulk.sigma_s": bulk_family("sigma"),
        "bulk.lpf_s": bulk_family("lpf"),
        "bulk.ints": count(is_bulk_call, "ints", prefix="bulk."),
        "bulk.bytes_out": count(is_bulk_call, "bytes_out", prefix="bulk."),
        "multfunc.values_self_s": total(lambda n: n == "multfunc.values_upto", self_s),
        "multfunc.prime_sums_s": total(
            lambda n: n in ("multfunc.mertens_sum", "multfunc.hr_constant"), prefix="multfunc."),
        "hist.histogram_self_s": total(lambda n: n == "hist.weighted_histogram", self_s),
        "hist.report_s": total(lambda n: n == "hist.hr_ratio"),
        "egps.deviation_self_s": total(lambda n: n == "egps.egps_deviation", self_s),
        "egps.counts_ints": count(lambda n: n == "bulk.counts_range", "ints",
                                  under="egps.egps_deviation"),
        "table.sifted_sum_s": total(lambda n: n == "table.sifted_table_sum"),
        "table.count_s": total(lambda n: n == "table.table_count"),
        "shifted.lambda_image_s": total(lambda n: n == "shifted.lambda_image_intersection"),
        "shifted.spd_s": total(lambda n: n == "shifted.shifted_divisor_count"),
        "cli.dispatch_self_s": total(lambda n: n == "cli.dispatch", self_s),
        "trace.top_spans_s": total(lambda n: True, prefix=""),
    }
    for kernel in KERNELS:
        for tag in WINDOW_BASES:
            label = f"kernels.{kernel}.{tag}"
            calls = [dur[c] for c in range(len(spans))
                     if spans[c]["parent"] is not None and names[spans[c]["parent"]] == label]
            m[f"bulk.window_ms.{kernel}.{tag}"] = 1000.0 * sum(calls) / len(calls) if calls else 0.0
    return m
