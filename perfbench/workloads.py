"""Workload inputs, their stated integer counts and their correctness checks.

Every input comes from the seed: the `hist` offset on x, the `kernels`
window starts and the positions spot-checked in each window.  `egps` and
`loops` are pinned and compared with outputs recorded at the commit that
introduced the benchmark (reference.json).  The checks use sources
independent of siftlab: a Moebius-sum count, sympy's factorint, or those
recorded outputs.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from decimal import Decimal, InvalidOperation
from math import isqrt, lcm, prod

HERE = os.path.dirname(os.path.abspath(__file__))
NAMES = ("hist", "egps", "kernels", "loops")

HIST_X = 10_000_000
WIDTH = 1 << 20
KERNELS = ("flags", "spf", "omega", "bigomega_sel", "mult_musq", "sigma", "lambda", "lpf")
SPOTS = 64                        # positions checked per window
WINDOW_BASES = {"lo1e9": 10**9, "lo1e10": 10**10}
EGPS_X = 5_000_000
LOOPS_SIZES = {"table-sifted": 300_000, "lambda-image": 500_000, "spd": 500_000, "table": 5_000}

EGPS_ARGVS = [["egps", "--x", str(EGPS_X), "--lambda", "2.0", "--threads", "2"]]
LOOPS_ARGVS = [
    ["table-sifted", "--x", str(LOOPS_SIZES["table-sifted"]), "--f", "musq",
     "--sieve", "explicit:3:1;5:2"],
    ["lambda-image", "--u", "1", "--v", "-1", "--x", str(LOOPS_SIZES["lambda-image"])],
    ["spd", "--a", "1", "--u", "1", "--v", "-1", "--x", str(LOOPS_SIZES["spd"]), "--y", "1000"],
    ["table", "--n", str(LOOPS_SIZES["table"])],
]


def make_inputs(name: str, seed: int) -> dict:
    """The generated inputs of one workload; the same seed gives the same inputs.

    `ints` is the workload's stated integer count, the numerator of ints_per_s.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "hist":
        x = HIST_X + rng.randrange(1 << 16)
        argv = ["hist", "--x", str(x), "--f", "musq", "--g", "omega", "--sieve", "explicit:2:1"]
        return {"name": name, "argvs": [argv], "x": x, "ints": x}
    if name == "egps":
        return {"name": name, "argvs": EGPS_ARGVS, "ints": EGPS_X}
    if name == "loops":
        s = LOOPS_SIZES
        ints = s["table-sifted"] + s["lambda-image"] + s["spd"] + s["table"] ** 2
        return {"name": name, "argvs": LOOPS_ARGVS, "ints": ints}
    if name == "kernels":
        windows = {tag: [{"tag": tag, "lo": base + rng.randrange(1 << 26),
                          "positions": sorted(rng.sample(range(WIDTH), SPOTS))}
                         for _ in range(2)]
                   for tag, base in WINDOW_BASES.items()}
        # each iteration runs every kernel on one window per base, alternating
        return {"name": name, "windows": windows, "ints": 8 * len(WINDOW_BASES) * WIDTH}
    raise ValueError(f"unknown workload {name!r}")


def child_spec(inputs: dict, iteration: int, trace: bool) -> dict:
    """What the child process runs in one iteration."""
    if inputs["name"] == "kernels":
        windows = [ws[iteration % len(ws)] for ws in inputs["windows"].values()]
        return {"kind": "kernels", "width": WIDTH, "windows": windows, "trace": trace}
    return {"kind": "cli", "argvs": inputs["argvs"], "trace": trace}


# ------------------------------------------------------------------ oracles

def mobius_upto(n: int) -> list[int]:
    """mu(0..n) by a plain sieve over smallest prime factors."""
    mu = [1] * (n + 1)
    is_comp = [False] * (n + 1)
    for p in range(2, n + 1):
        if is_comp[p]:
            continue
        for m in range(p, n + 1, p):
            if m > p:
                is_comp[m] = True
            mu[m] = -mu[m]
        for m in range(p * p, n + 1, p * p):
            mu[m] = 0
    if n >= 0:
        mu[0] = 0
    return mu


def even_squarefree_count(x: int) -> int:
    """#{even squarefree n <= x} = sum over odd d <= sqrt(x/2) of mu(d) * ceil(floor((x/2)/d^2) / 2)."""
    y = x // 2
    r = isqrt(y)
    mu = mobius_upto(r)
    return sum(mu[d] * ((y // (d * d) + 1) // 2) for d in range(1, r + 1, 2))


def kernel_oracle(n: int) -> dict:
    """Every kernel's value at n > 1, from sympy's factorization."""
    from sympy import factorint

    fac = factorint(n)
    prime = len(fac) == 1 and next(iter(fac.values())) == 1
    lam = 1
    for p, e in fac.items():
        lam = lcm(lam, (1 if e == 1 else 2 if e == 2 else 2 ** (e - 2)) if p == 2
                  else p ** (e - 1) * (p - 1))
    return {
        "flags": prime,
        "spf": 0 if prime else min(fac),
        "omega": len(fac),
        "bigomega_sel": sum(e for p, e in fac.items() if p % 4 == 1),
        "mult_musq": 1.0 if all(e == 1 for e in fac.values()) else 0.0,
        "sigma": prod((p ** (e + 1) - 1) // (p - 1) for p, e in fac.items()),
        "lambda": lam,
        "lpf": max(fac),
    }


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------------- checks

def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def same_field(got: str, want: str) -> bool:
    """Text fields match exactly; a recorded integral value must match exactly
    as a number (so 123 and 123.0 agree); other numbers within 1e-12 relative."""
    if got == want:
        return True
    try:
        g, w = Decimal(got), Decimal(want)
    except InvalidOperation:
        return False
    if not (g.is_finite() and w.is_finite()):
        return False
    if w == w.to_integral_value():
        return g == w
    return abs(g - w) <= Decimal("1e-12") * abs(w)


def compare_tables(got: str, want: str) -> list[str]:
    g, w = _rows(got), _rows(want)
    if len(g) != len(w):
        return [f"{len(g)} rows, reference has {len(w)}"]
    problems = []
    for i, (gr, wr) in enumerate(zip(g, w)):
        if len(gr) != len(wr):
            problems.append(f"row {i}: {len(gr)} fields, reference has {len(wr)}")
            continue
        problems += [f"row {i} field {j}: {gf!r} != reference {wf!r}"
                     for j, (gf, wf) in enumerate(zip(gr, wr)) if not same_field(gf, wf)]
    return problems


class Checker:
    """Checks the result of one iteration against the oracles; caches oracle values."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.name = inputs["name"]
        self._expected: dict = {}
        if self.name in ("egps", "loops"):
            ref = load_reference()[self.name]
            if ref["argvs"] != inputs["argvs"]:
                raise ValueError(f"reference.json was recorded for other {self.name} commands")
            self.reference = ref["outputs"]
        elif self.name == "hist":
            self.oracle_mass = even_squarefree_count(inputs["x"])

    def prepare(self) -> None:
        """Compute every oracle value up front, outside the timed loop."""
        if self.name == "kernels":
            for windows in self.inputs["windows"].values():
                for w in windows:
                    self._expected[w["lo"]] = [kernel_oracle(w["lo"] + p)
                                               for p in w["positions"]]

    def problems(self, result: dict) -> list[str]:
        """Every way the result disagrees with the oracle; empty when correct."""
        if self.name == "kernels":
            return self._kernel_problems(result["values"])
        outputs = result["outputs"]
        if self.name == "hist":
            rows = _rows(outputs[0])
            col = rows[0].index("mass")
            mass = sum(Decimal(r[col]) for r in rows[1:])
            if mass != self.oracle_mass:
                return [f"summed mass {mass} != {self.oracle_mass} even squarefree n <= x"]
            return []
        if len(outputs) != len(self.reference):
            return [f"{len(outputs)} outputs, reference has {len(self.reference)}"]
        return [f"command {i}: {p}" for i, (g, w) in enumerate(zip(outputs, self.reference))
                for p in compare_tables(g, w)]

    def _kernel_problems(self, values: dict) -> list[str]:
        problems = []
        for tag, windows in self.inputs["windows"].items():
            if tag not in values:
                problems.append(f"no values for the {tag} window")
                continue
            lo, by_kernel = values[tag]["lo"], values[tag]["kernels"]
            window = next((w for w in windows if w["lo"] == lo), None)
            if window is None or sorted(by_kernel) != sorted(KERNELS):
                problems.append(f"{tag}: ran kernels {sorted(by_kernel)} on window {lo}")
                continue
            if lo not in self._expected:
                self.prepare()
            expected = self._expected[lo]
            for kernel, got in by_kernel.items():
                if len(got) != len(expected):
                    problems.append(f"{tag} {kernel}: {len(got)} values, want {len(expected)}")
                    continue
                problems += [f"{tag} {kernel} at n={lo + p}: {g} != {e[kernel]}"
                             for p, g, e in zip(window["positions"], got, expected)
                             if g != e[kernel]]
        return problems
