"""Nonnegative multiplicative weights and their prime sums.

A weight is its canonical spec, its prime-power rule f(p**e) and f(p), a
number or a vectorized callable, and the builtins are registered once, by
spec name (BUILTINS).  Its values come from the bulk mult windows, which
read base primes to isqrt(x) that values_upto and window_weights sieve
themselves, so a caller passes a weight only x.  One driver, weighted_bins,
turns a stream of windows into bins: each window gives its keys, its
selected n and its weights, and the masses are added in ascending n.  The
histogram, the sigma family and the sifted table sum all bin through it.
Prime sums (Mertens-type) and the sup-distance constant to log log t live
here too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bulk
from .arith import PrimeTable
from .primesets import ALL_PRIMES, AllPrimes, PrimeSubset


@dataclass(frozen=True)
class MultiplicativeFunction:
    """A multiplicative weight: its canonical spec, its rule on prime powers, and f(p).

    rule(p, e) gives f(p**e).  prime gives f(p), as bulk.mult_window takes
    it: a number or a vectorized callable over an int64 array of primes.
    """

    spec: str
    rule: Callable[[int, int], float]
    prime: float | Callable[[np.ndarray], np.ndarray]

    def at_primes(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized f(p) over an array of primes."""
        if callable(self.prime):
            return np.asarray(self.prime(np.asarray(arr)), dtype=np.float64)
        return np.full(len(arr), self.prime, dtype=np.float64)

    def spec_string(self) -> str:
        return self.spec

    def is_one(self) -> bool:
        return self.spec == "one"


def values_upto(f: MultiplicativeFunction, x: int, threads: int = 1) -> np.ndarray:
    """Array v with v[n] = f(n) for 0 <= n <= x (v[0] = 0), from windows that read the
    primes up to isqrt(x), sieved here."""
    primes = bulk.primes_upto(math.isqrt(x))
    return bulk.mult_range(x, primes, f.rule, f.prime, threads=threads)


def window_weights(f: MultiplicativeFunction, x: int):
    """weighted_bins' weights for f over windows [a, b) with b <= x + 1: None for f = one,
    else a callable giving f(n) over one window from bulk.mult_window, which reads the
    primes up to isqrt(x), sieved here."""
    if f.is_one():
        return None
    rule, prime, primes = f.rule, f.prime, bulk.primes_upto(math.isqrt(x))
    return lambda a, b: bulk.mult_window(a, b, primes, rule, prime)


def weighted_bins(lo: int, hi: int, keys, sel=None, weights=None, threads: int = 1) -> np.ndarray:
    """bins[k] = the sum of the weights, added in ascending n, of the n in [lo, hi) with key k.

    keys(a, b) gives the integer or bool keys of one window [a, b) of
    [lo, hi); sel(a, b), when given, the window's bools, and only the n
    where it is True are kept; weights(a, b), when given, the window's
    float weights.  Without weights each kept n counts 1 and the bins are
    exact int64 counts.  The bins run to the largest kept key, even when
    its mass is 0, as np.bincount's do.

    The callables run window by window in one bulk stream's workers, so no
    key, weight, index or mask array of length hi - lo is made.  A window's
    kept keys and weights are gathered by index, or read in place when all
    are kept.  np.add.at adds each bin's terms in index order, as
    np.bincount does, so the doubles match one np.bincount over all kept n.
    """
    def window(a: int, b: int):
        """The window's kept keys and, with weights, their weights."""
        k = keys(a, b)
        if k.dtype == np.bool_:
            k = k.view(np.uint8)  # np.add.at would read a bool index as a mask
        w = None if weights is None else weights(a, b)
        if sel is not None:
            part = np.flatnonzero(sel(a, b))
            if part.size < b - a:
                k = k[part]
                w = None if w is None else w[part]
        return k, w

    bins = np.zeros(0, dtype=np.int64)  # np.bincount of nothing, weighted or not
    for k, w in bulk.stream_windows(window, bulk.window_ranges(lo, hi), threads):
        top = int(k.max()) + 1 if k.size else 0
        if top > bins.size:
            grown = np.zeros(top, dtype=np.int64 if weights is None else np.float64)
            grown[: bins.size] = bins
            bins = grown
        if w is None:
            bins[:top] += np.bincount(k)
        else:
            np.add.at(bins, k, w)
    return bins


# ---------------------------------------------------------------- builtins

def one() -> MultiplicativeFunction:
    return MultiplicativeFunction("one", lambda p, e: 1.0, 1.0)


def mu_sq() -> MultiplicativeFunction:
    return MultiplicativeFunction("musq", lambda p, e: 1.0 if e == 1 else 0.0, 1.0)


def _z_spec(name: str, z: float) -> str:
    """name:z for a nonnegative finite z (else ValueError), z spelled with :g when that
    parses back to z, else with repr."""
    if not 0 <= z < math.inf:
        raise ValueError("z must be nonnegative and finite")
    short = f"{z:g}"
    return f"{name}:{short if float(short) == z else repr(z)}"


def z_omega(z: float) -> MultiplicativeFunction:
    return MultiplicativeFunction(_z_spec("zomega", z), lambda p, e: z, float(z))


def z_bigomega(z: float) -> MultiplicativeFunction:
    spec = _z_spec("zbigomega", z)
    if z >= 2:
        warnings.warn("z >= 2 leaves the valid range at the prime 2", stacklevel=2)
    return MultiplicativeFunction(spec, lambda p, e: z**e, float(z))


def tau_k(k: int) -> MultiplicativeFunction:
    if k < 1:
        raise ValueError("k must be a positive integer")
    return MultiplicativeFunction(f"tauk:{k}", lambda p, e: float(math.comb(e + k - 1, e)),
                                  float(k))


def r_over_4() -> MultiplicativeFunction:
    def rule(p: int, e: int) -> float:
        if p == 2:
            return 1.0
        if p % 4 == 1:
            return float(e + 1)
        return 1.0 if e % 2 == 0 else 0.0

    def prime(a: np.ndarray) -> np.ndarray:
        return np.where(a == 2, 1.0, np.where(a % 4 == 1, 2.0, 0.0))

    return MultiplicativeFunction("r4", rule, prime)


def sum2sq_indicator() -> MultiplicativeFunction:
    def rule(p: int, e: int) -> float:
        if p % 4 == 3 and e % 2 == 1:
            return 0.0
        return 1.0

    return MultiplicativeFunction("s2s", rule, lambda a: np.where(a % 4 == 3, 0.0, 1.0))


def phi_over_n() -> MultiplicativeFunction:
    return MultiplicativeFunction("phioverN", lambda p, e: 1.0 - 1.0 / p,
                                  lambda a: 1.0 - 1.0 / a.astype(np.float64))


def n_over_phi() -> MultiplicativeFunction:
    return MultiplicativeFunction("Noverphi", lambda p, e: p / (p - 1.0),
                                  lambda a: a.astype(np.float64) / (a - 1.0))


# spec name -> (constructor, the type of its one parameter or None)
BUILTINS: dict[str, tuple[Callable[..., MultiplicativeFunction], type | None]] = {
    "one": (one, None),
    "musq": (mu_sq, None),
    "zomega": (z_omega, float),
    "zbigomega": (z_bigomega, float),
    "tauk": (tau_k, int),
    "r4": (r_over_4, None),
    "s2s": (sum2sq_indicator, None),
    "phioverN": (phi_over_n, None),
    "Noverphi": (n_over_phi, None),
}


def builtin(name: str, *params) -> MultiplicativeFunction:
    """Look up a builtin weight by its spec name, applying numeric parameters if any."""
    try:
        ctor = BUILTINS[name][0]
    except KeyError:
        raise ValueError(f"unknown builtin weight {name!r}") from None
    return ctor(*params)


# ------------------------------------------------------------- prime sums

def mertens_sum(
    f: MultiplicativeFunction, x: int, E: PrimeSubset = ALL_PRIMES,
    table: PrimeTable | None = None,
) -> float:
    """Sum of f(p)/p over primes p <= x restricted to E, read from table when it reaches
    x, else from a new PrimeTable(x)."""
    if x < 2:
        return 0.0
    if table is None or table.limit < x:
        table = PrimeTable(x)
    ps = table.primes[: table.pi(x)]  # a view; all primes need no mask and no copy
    if not isinstance(E, AllPrimes):
        ps = ps[np.asarray(E.mask(ps), dtype=bool)]
    terms = f.at_primes(ps)  # a new array, divided in place
    terms /= ps
    return float(np.sum(terms))


def hr_constant(x: int) -> float:
    """Sup over t in [2, x] of |sum_{p <= t} 1/p - log log t|.

    The running sum jumps at primes and log log t grows in between, so the
    sup is attained at a one-sided limit at some prime (or at t = x).
    Past t = 286, |sum_{p <= t} 1/p - log log t| < 0.2615 + 1/(2 log**2 t)
    < 0.28 (Rosser & Schoenfeld 1962, Thm 5), below the value 0.866... at
    t = 2, so only the primes up to 286 are read, sieved here.
    """
    if x < 2:
        raise ValueError("need x >= 2")
    x = min(x, 286)
    ps = bulk.primes_upto(x).astype(np.float64)
    csum = np.cumsum(1.0 / ps)
    ll = np.log(np.log(ps))
    best = float(np.max(np.abs(csum - ll)))           # right limits at primes
    left = np.abs(csum[:-1] - ll[1:])                 # approaching the next prime
    if left.size:
        best = max(best, float(np.max(left)))
    best = max(best, abs(float(csum[-1]) - math.log(math.log(x))))
    return best


__all__ = [
    "MultiplicativeFunction",
    "BUILTINS",
    "values_upto",
    "window_weights",
    "weighted_bins",
    "one",
    "mu_sq",
    "z_omega",
    "z_bigomega",
    "tau_k",
    "r_over_4",
    "sum2sq_indicator",
    "phi_over_n",
    "n_over_phi",
    "builtin",
    "mertens_sum",
    "hr_constant",
]
