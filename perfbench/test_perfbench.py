"""Tests of the benchmark's own checks and tracer.

They show that a result differing from the reference or the oracle makes an
iteration count as failed, and that the tracer sees calls made through
names a module imported from another.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _hist_output(x: int) -> str:
    import contextlib
    import io

    from siftlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.dispatch(["hist", "--x", str(x), "--f", "musq", "--g", "omega",
                      "--sieve", "explicit:2:1"])
    return buf.getvalue()


def _with_wrong_mass(text: str) -> str:
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[7] = repr(float(fields[7]) + 1.0)
    return "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"


def test_mobius_count_matches_brute_force():
    from sympy import factorint

    for x in (2, 3, 10, 97, 1000):
        brute = sum(1 for n in range(2, x + 1, 2)
                    if all(e == 1 for e in factorint(n).values()))
        assert workloads.even_squarefree_count(x) == brute


def test_hist_check_rejects_a_wrong_mass():
    x = 20_011
    checker = workloads.Checker({"name": "hist", "x": x})
    text = _hist_output(x)
    assert checker.problems({"outputs": [text]}) == []
    assert checker.problems({"outputs": [_with_wrong_mass(text)]})


@pytest.mark.parametrize("got,want,ok", [
    ("123", "123.0", True),
    ("627", "627.0000000000001", True),
    ("2058600.0", "2058599.9999999998", True),
    ("41538", "41538", True),
    ("41539", "41538", False),
    ("16891.5", "16891.0", False),
    ("0.4117200001", "0.41172", False),
    ("musq", "one", False),
    ("", "0.5", False),
])
def test_reference_field_tolerance(got, want, ok):
    assert workloads.same_field(got, want) is ok


@pytest.mark.parametrize("name", ["egps", "loops"])
def test_reference_check_rejects_a_changed_field(name):
    inputs = workloads.make_inputs(name, 7)
    checker = workloads.Checker(inputs)
    outputs = list(checker.reference)
    assert checker.problems({"outputs": outputs}) == []
    head, row = outputs[-1].splitlines()[:2]
    fields = row.split(",")
    fields[-1] = "9" + fields[-1]
    outputs[-1] = "\n".join([head, ",".join(fields)] + outputs[-1].splitlines()[2:]) + "\n"
    assert checker.problems({"outputs": outputs})


def test_kernel_spot_check_against_sympy():
    lo = 10**9 + 4321
    window = {"tag": "lo1e9", "lo": lo, "positions": [0, 1, 2, 3, 500, 1023]}
    inputs = {"name": "kernels", "windows": {"lo1e9": [window]}}
    spec = {"kind": "kernels", "width": 1024, "windows": [window], "trace": False}
    result = child._run_kernels(spec, None)
    checker = workloads.Checker(inputs)
    assert checker.problems(result) == []
    result["values"]["lo1e9"]["kernels"]["sigma"][4] += 1
    assert checker.problems(result)


def test_failed_iterations_count_in_error_rate(monkeypatch):
    x = 20_011
    text = _hist_output(x)
    good = json.dumps({"outputs": [text], "t_ready": 0.0, "t_done": 0.5}).encode()
    bad = json.dumps({"outputs": [_with_wrong_mass(text)], "t_ready": 0.0,
                      "t_done": 0.5}).encode()
    results = iter([
        {"returncode": 0, "out": good},
        {"returncode": 0, "out": bad},
        {"returncode": 1, "out": b""},
        {"returncode": 0, "out": b"not json"},
        {"returncode": 0, "out": good.replace(b",1.0,", b",one,", 1)},
    ])

    def fake_child(spec):
        r = next(results)
        return {"t0": -1.0, "wall_s": 2.0, "cpu_s": 1.0, "peak_rss_mb": 1.0, **r}

    monkeypatch.setattr(run, "run_child", fake_child)
    its = run.Iterations({"name": "hist", "x": x, "argvs": [], "ints": x})
    for _ in range(5):
        its.run(trace=False)
    assert (its.attempted, its.failed, len(its.untraced)) == (5, 4, 1)


def test_self_time_subtracts_the_union_of_children_and_tallies():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None, "counts": {},
         "tally": {"t": (3, 1.0)}},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0, "counts": {}, "tally": {}},
        {"name": "c", "start": 3.0, "end": 6.0, "parent": 0, "counts": {}, "tally": {}},
    ]
    assert tracer.self_seconds(spans) == [4.0, 3.0, 3.0]


def test_tracer_rebinds_names_imported_across_modules():
    spec = {"kind": "cli", "trace": True, "argvs": [
        ["hist", "--x", "20011", "--f", "musq", "--g", "omega", "--sieve", "explicit:2:1"]]}
    out = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                         capture_output=True, check=True).stdout
    spans = json.loads(out.decode().splitlines()[-1])["spans"]
    parent = {s["name"]: spans[s["parent"]]["name"] if s["parent"] is not None else None
              for s in spans}
    assert parent["cli.dispatch"] is None
    assert parent["sift.sift"] == "cli.dispatch"                  # via specs.sift
    assert parent["multfunc.values_upto"] == "hist.weighted_histogram"  # via hist.values_upto
    assert parent["bulk.mult_range"] == "multfunc.values_upto"
    assert parent["multfunc.mertens_sum"] == "hist.hr_ratio"      # via hist.mertens_sum
    metrics = tracer.layer_metrics(spans)
    assert metrics["bulk.ints"] == 2 * 20011
    assert metrics["arith.prime_table_limit"] == 20011
