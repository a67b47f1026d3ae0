"""The histogram grammar against a brute-force loop over n <= x.

One hypothesis test draws a weight, a statistic g, a prime subset E, a
survivor set, x, the window width and the thread count, and compares
hist.weighted_histogram's bins and multfunc.mertens_sum with a pure-Python
loop that factors every n by trial division.  A wrong window edge, a
selector that misses a cofactor or a set laid one place off shows only on
some of these combinations.
"""

import math
from math import isqrt

from hypothesis import given, settings, strategies as st

from siftlab import bulk, hist, multfunc
from siftlab.specs import parse_primeset, parse_set_spec, parse_weight

from oracles import oadmits, ofactor, oform_values, oshifted_primes, osieve

# every builtin, with sample parameters; the weights whose values are integers
# or dyadic with few bits sum exactly in doubles
WEIGHTS = ["one", "musq", "r4", "s2s", "phioverN", "Noverphi", "tauk:1", "tauk:3"] + [
    f"{name}:{z}" for name in ("zomega", "zbigomega") for z in ("0", "0.5", "1.3")]
EXACT = {"one", "musq", "r4", "s2s", "tauk:1", "tauk:3", "zomega:0", "zomega:0.5",
         "zbigomega:0", "zbigomega:0.5"}

# interval:3:40 ends on a composite, so interval:7:37 puts a prime on a right end
PRIME_SETS = ["all", "pmin:5", "mod:4:1", "kron:-3:+1", "interval:3:40", "interval:7:37",
              "list:2,3,7", "not:mod:3:2"]

SETS = ["none", "explicit:2:1", "explicit:3:1;5:2", "avoid", "sp:1,-1", "sp:2,1", "qf:1,0,1",
        "qf:1,1,2,shift=-1"]


@st.composite
def cases(draw):
    x = draw(st.integers(3, 3000))
    kind = draw(st.sampled_from(SETS))
    if kind == "avoid":
        kind = f"avoid:1/modp<={draw(st.integers(1, isqrt(x)))}"
    return dict(f=draw(st.sampled_from(WEIGHTS)), g=draw(st.sampled_from(["omega", "bigomega"])),
                E=draw(st.sampled_from(PRIME_SETS)), set=kind, x=x,
                width=draw(st.sampled_from([97, 997, 1 << 20])),
                threads=draw(st.sampled_from([1, 2])))


def _members(sspec, x):
    """Bools over [0, x], True at each member, from the oracles alone."""
    if sspec.kind == "cond":
        return [n >= 1 and oadmits(sspec.cond, n) for n in range(x + 1)]
    if sspec.kind == "sp":
        return oshifted_primes(sspec.a, sspec.b, x).tolist()
    return oform_values(sspec.a, sspec.b, sspec.c, x, sspec.shift).tolist()


def _close(got, want, exact):
    return got == want if exact else abs(got - want) <= 1e-12 * abs(want)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cases())
def test_histogram_and_prime_sum_match_a_brute_force_loop(case):
    x, f, E = case["x"], parse_weight(case["f"]), parse_primeset(case["E"])
    sspec = parse_set_spec(case["set"], x)
    exact = case["f"] in EXACT

    masses = {}
    for n, member in enumerate(_members(sspec, x)):
        if not member:
            continue
        parts = ofactor(n)
        k = sum(1 if case["g"] == "omega" else e for p, e in parts if E.contains(p))
        masses.setdefault(k, []).append(float(math.prod(f.rule(p, e) for p, e in parts)))
    want = {k: m for k, w in masses.items() if (m := math.fsum(w)) > 0}
    primes = [p for p in osieve(x).nonzero()[0].tolist() if E.contains(p)]
    want_sum = math.fsum(f.rule(p, 1) / p for p in primes)

    saved = bulk.DEFAULT_WINDOW
    bulk.DEFAULT_WINDOW = case["width"]
    try:
        got = hist.weighted_histogram(sspec.realize(x), f, case["g"], E, case["threads"])
        got_sum = multfunc.mertens_sum(f, x, E)
    finally:
        bulk.DEFAULT_WINDOW = saved

    assert sorted(got.bins) == sorted(want)
    for k, m in want.items():
        assert _close(got.bins[k], m, exact), (k, got.bins[k], m)
    assert _close(got.total, math.fsum(want.values()), exact)
    assert _close(got_sum, want_sum, False), (got_sum, want_sum)
