"""Nonnegative multiplicative weights and their prime sums.

A weight is determined by its prime-power rule f(p**e).  Its values come
from the bulk mult windows.  One driver, weighted_bins, turns a stream of
windows into bins: each window gives its keys, its selected n and its
weights, and the masses are added in ascending n.  The histogram, the
sigma family and the sifted table sum all bin through it.  Prime sums
(Mertens-type) and the sup-distance constant to log log t live here too.
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
    """A multiplicative weight given by its value rule on prime powers."""

    name: str
    rule: Callable[[int, int], float]
    spec: str
    prime_vec: Callable[[np.ndarray], np.ndarray] | None = None
    prime_value: float | None = None  # f(p) when it is the same number at every prime

    def at_primes(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized f(p) over an array of primes."""
        if self.prime_value is not None:
            return np.full(len(arr), self.prime_value)
        if self.prime_vec is not None:
            return np.asarray(self.prime_vec(np.asarray(arr)), dtype=np.float64)
        return np.fromiter(
            (self.rule(int(p), 1) for p in arr), dtype=np.float64, count=len(arr)
        )

    def window_primes(self):
        """f at the primes as bulk.mult_window takes it: prime_value, else at_primes."""
        return self.at_primes if self.prime_value is None else self.prime_value

    def spec_string(self) -> str:
        return self.spec

    def is_one(self) -> bool:
        return self.name == "one"


def values_upto(
    f: MultiplicativeFunction, x: int, table: PrimeTable, threads: int = 1
) -> np.ndarray:
    """Array v with v[n] = f(n) for 0 <= n <= x (v[0] = 0)."""
    if f.is_one():
        out = np.ones(x + 1, dtype=np.float64)
        out[0] = 0.0
        return out
    return bulk.mult_range(x, table.primes, f.rule, f.window_primes(), threads=threads)


def window_weights(f: MultiplicativeFunction, primes):
    """weighted_bins' weights for f: None for f = one, else a callable giving f(n)
    over one window [a, b) from bulk.mult_window, with primes reaching isqrt(b - 1)."""
    if f.is_one():
        return None
    rule, at_primes = f.rule, f.window_primes()
    return lambda a, b: bulk.mult_window(a, b, primes, rule, at_primes)


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
    return MultiplicativeFunction(
        "one", lambda p, e: 1.0, "one", prime_value=1.0,
    )


def mu_sq() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        "mu_sq", lambda p, e: 1.0 if e == 1 else 0.0, "musq", prime_value=1.0,
    )


def z_omega(z: float) -> MultiplicativeFunction:
    if z < 0:
        raise ValueError("z must be nonnegative")
    return MultiplicativeFunction(
        "z_omega", lambda p, e: z, f"zomega:{z:g}",
        prime_value=float(z),
    )


def z_bigomega(z: float) -> MultiplicativeFunction:
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z >= 2:
        warnings.warn("z >= 2 leaves the valid range at the prime 2", stacklevel=2)
    return MultiplicativeFunction(
        "z_bigomega", lambda p, e: z**e, f"zbigomega:{z:g}",
        prime_value=float(z),
    )


def tau_k(k: int) -> MultiplicativeFunction:
    if k < 1:
        raise ValueError("k must be a positive integer")
    return MultiplicativeFunction(
        "tau_k", lambda p, e: float(math.comb(e + k - 1, e)), f"tauk:{k}",
        prime_value=float(k),
    )


def r_over_4() -> MultiplicativeFunction:
    def rule(p: int, e: int) -> float:
        if p == 2:
            return 1.0
        if p % 4 == 1:
            return float(e + 1)
        return 1.0 if e % 2 == 0 else 0.0

    def pv(a: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        return np.where(a == 2, 1.0, np.where(a % 4 == 1, 2.0, 0.0))

    return MultiplicativeFunction(
        "r_over_4", rule, "r4",
        prime_vec=pv,
    )


def sum2sq_indicator() -> MultiplicativeFunction:
    def rule(p: int, e: int) -> float:
        if p % 4 == 3 and e % 2 == 1:
            return 0.0
        return 1.0

    def pv(a: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        return np.where(a % 4 == 3, 0.0, 1.0)

    return MultiplicativeFunction(
        "sum2sq_indicator", rule, "s2s",
        prime_vec=pv,
    )


def phi_over_n() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        "phi_over_n", lambda p, e: 1.0 - 1.0 / p, "phioverN",
        prime_vec=lambda a: 1.0 - 1.0 / np.asarray(a, dtype=np.float64),
    )


def n_over_phi() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        "n_over_phi", lambda p, e: p / (p - 1.0), "Noverphi",
        prime_vec=lambda a: np.asarray(a, dtype=np.float64) / (np.asarray(a) - 1.0),
    )


_BUILTINS: dict[str, Callable] = {
    "one": one,
    "mu_sq": mu_sq,
    "musq": mu_sq,
    "z_omega": z_omega,
    "zomega": z_omega,
    "z_bigomega": z_bigomega,
    "zbigomega": z_bigomega,
    "tau_k": tau_k,
    "tauk": tau_k,
    "r_over_4": r_over_4,
    "r4": r_over_4,
    "sum2sq_indicator": sum2sq_indicator,
    "s2s": sum2sq_indicator,
    "phi_over_n": phi_over_n,
    "phioverN": phi_over_n,
    "n_over_phi": n_over_phi,
    "Noverphi": n_over_phi,
}


def builtin(name: str, *params) -> MultiplicativeFunction:
    """Look up a named builtin weight, applying numeric parameters if any."""
    try:
        ctor = _BUILTINS[name]
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
    if ps.size == 0:
        return 0.0
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
