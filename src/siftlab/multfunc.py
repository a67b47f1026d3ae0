"""Nonnegative multiplicative weights and their prime sums.

A weight is determined by its prime-power rule f(p**e).  The class carries a
declared growth bound A1 with f(n) <= A1**bigomega(n), checked empirically by
class_check.  Prime sums (Mertens-type), the sup-distance constant to
log log t, harmonic means, and coprimality correction factors all live here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bulk
from .arith import Factorization, PrimeTable, factorize, table_upto
from .primesets import ALL_PRIMES, PrimeSubset


@dataclass(frozen=True)
class MultiplicativeFunction:
    """A multiplicative weight given by its value rule on prime powers."""

    name: str
    rule: Callable[[int, int], float]
    A1: float
    spec: str
    growth_note: str = ""
    prime_vec: Callable[[np.ndarray], np.ndarray] | None = None
    params: tuple = field(default_factory=tuple)

    def at_primes(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized f(p) over an array of primes."""
        if self.prime_vec is not None:
            return np.asarray(self.prime_vec(np.asarray(arr)), dtype=np.float64)
        return np.fromiter(
            (self.rule(int(p), 1) for p in arr), dtype=np.float64, count=len(arr)
        )

    def spec_string(self) -> str:
        return self.spec

    def is_one(self) -> bool:
        return self.name == "one"


def eval_mf(f: MultiplicativeFunction, fac: Factorization) -> float:
    """Evaluate f at a factored integer; rejects negative rule values."""
    out = 1.0
    for p, e in fac.parts:
        v = float(f.rule(p, e))
        if v < 0:
            raise ValueError(f"{f.name} takes a negative value at ({p}, {e})")
        out *= v
    return out


def values_upto(
    f: MultiplicativeFunction, x: int, table: PrimeTable, threads: int = 1
) -> np.ndarray:
    """Array v with v[n] = f(n) for 0 <= n <= x (v[0] = 0)."""
    if f.is_one():
        out = np.ones(x + 1, dtype=np.float64)
        out[0] = 0.0
        return out
    return bulk.mult_range(x, table.primes, f.rule, f.at_primes, threads=threads)


def weighted_bins(f: MultiplicativeFunction, keys: np.ndarray, sel, table: PrimeTable | None,
                  threads: int = 1) -> np.ndarray:
    """bins[k] = sum of f(n), added in ascending n, over the n in sel with keys[n] = k.

    sel is a slice or bool mask over n = 0..len(keys) - 1.  For f = one the
    bins are exact int64 counts, no weight array is built and table may be
    None; otherwise table must reach isqrt(len(keys) - 1).
    """
    if f.is_one():
        return np.bincount(keys[sel])
    fv = values_upto(f, len(keys) - 1, table, threads)
    return np.bincount(keys[sel], weights=fv[sel])


# ---------------------------------------------------------------- builtins

def one() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        "one", lambda p, e: 1.0, 1.0, "one",
        prime_vec=lambda a: np.ones(len(a)),
    )


def mu_sq() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        "mu_sq", lambda p, e: 1.0 if e == 1 else 0.0, 1.0, "musq",
        growth_note="square-free indicator",
        prime_vec=lambda a: np.ones(len(a)),
    )


def z_omega(z: float) -> MultiplicativeFunction:
    if z < 0:
        raise ValueError("z must be nonnegative")
    return MultiplicativeFunction(
        "z_omega", lambda p, e: z, max(z, 1.0), f"zomega:{z:g}",
        growth_note="z to the number of distinct prime factors",
        prime_vec=lambda a, z=z: np.full(len(a), z),
        params=(z,),
    )


def z_bigomega(z: float) -> MultiplicativeFunction:
    if z < 0:
        raise ValueError("z must be nonnegative")
    if z >= 2:
        warnings.warn("z >= 2 leaves the valid range at the prime 2", stacklevel=2)
    return MultiplicativeFunction(
        "z_bigomega", lambda p, e: z**e, max(z, 1.0), f"zbigomega:{z:g}",
        growth_note="z to the number of prime factors with multiplicity",
        prime_vec=lambda a, z=z: np.full(len(a), z),
        params=(z,),
    )


def tau_k(k: int) -> MultiplicativeFunction:
    if k < 1:
        raise ValueError("k must be a positive integer")
    return MultiplicativeFunction(
        "tau_k", lambda p, e: float(math.comb(e + k - 1, e)), float(k), f"tauk:{k}",
        growth_note="k-fold divisor function",
        prime_vec=lambda a, k=k: np.full(len(a), float(k)),
        params=(k,),
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
        "r_over_4", rule, 2.0, "r4",
        growth_note="lattice points on circles, divided by 4",
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
        "sum2sq_indicator", rule, 1.0, "s2s",
        growth_note="indicator of sums of two squares",
        prime_vec=pv,
    )


def phi_over_n() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        "phi_over_n", lambda p, e: 1.0 - 1.0 / p, 1.0, "phioverN",
        prime_vec=lambda a: 1.0 - 1.0 / np.asarray(a, dtype=np.float64),
    )


def n_over_phi() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        "n_over_phi", lambda p, e: p / (p - 1.0), 2.0, "Noverphi",
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
    """Sum of f(p)/p over primes p <= x restricted to E."""
    if x < 2:
        return 0.0
    table = table_upto(table, x)
    ps = table.primes[table.primes <= x]
    m = np.asarray(E.mask(ps), dtype=bool)
    ps = ps[m]
    if ps.size == 0:
        return 0.0
    return float(np.sum(f.at_primes(ps) / ps))


def hr_constant(x: int, table: PrimeTable | None = None) -> float:
    """Sup over t in [2, x] of |sum_{p <= t} 1/p - log log t|.

    The running sum jumps at primes and log log t grows in between, so the
    sup is attained at a one-sided limit at some prime (or at t = x).
    """
    if x < 2:
        raise ValueError("need x >= 2")
    table = table_upto(table, x)
    ps = table.primes[table.primes <= x].astype(np.float64)
    csum = np.cumsum(1.0 / ps)
    ll = np.log(np.log(ps))
    best = float(np.max(np.abs(csum - ll)))           # right limits at primes
    left = np.abs(csum[:-1] - ll[1:])                 # approaching the next prime
    if left.size:
        best = max(best, float(np.max(left)))
    best = max(best, abs(float(csum[-1]) - math.log(math.log(x))))
    return best


def harmonic_mean_ratio(
    f: MultiplicativeFunction, x: int, table: PrimeTable | None = None, threads: int = 1
) -> float:
    """(sum_{n <= x} f(n)/n) / exp(sum_{p <= x} f(p)/p)."""
    if x < 1:
        raise ValueError("need x >= 1")
    table = table_upto(table, max(x, 2))
    fv = values_upto(f, x, table, threads)
    num = float(np.sum(fv[1:] / np.arange(1, x + 1, dtype=np.float64)))
    return num / math.exp(mertens_sum(f, x, table=table))


# ------------------------------------------------------------ class check

@dataclass
class ClassCheckReport:
    x: int
    A1: float
    worst_ratio: float          # max f(n) / A1**bigomega(n)
    witness: int
    passed: bool                # worst_ratio <= 1 within rounding
    eps_growth: dict[float, float]  # eps -> max f(n)/n**eps


def class_check(
    f: MultiplicativeFunction, x: int,
    A1: float | None = None,
    eps_values: tuple[float, ...] = (0.1, 0.01),
    table: PrimeTable | None = None, threads: int = 1,
) -> ClassCheckReport:
    """Empirically verify the declared growth bounds up to x.

    A1 overrides the declared per-prime cap, so a wrong declaration can
    be exhibited as a failing report.
    """
    if x < 2:
        raise ValueError("need x >= 2")
    if A1 is None:
        A1 = f.A1
    table = table_upto(table, x)
    fv = values_upto(f, x, table, threads)
    big = bulk.counts_range(x, table.primes, "bigomega", threads=threads)
    denom = np.power(A1, big[1:].astype(np.float64))
    ratios = fv[1:] / denom
    w = int(np.argmax(ratios))
    eps_growth = {}
    ns = np.arange(1, x + 1, dtype=np.float64)
    for eps in eps_values:
        eps_growth[eps] = float(np.max(fv[1:] / ns**eps))
    return ClassCheckReport(
        x=x, A1=A1,
        worst_ratio=float(ratios[w]), witness=w + 1,
        passed=bool(ratios[w] <= 1.0 + 1e-12),
        eps_growth=eps_growth,
    )


def coprimality_factor(
    f: MultiplicativeFunction, d, table: PrimeTable | None = None
) -> float:
    """Product over p | d of (sum_{e >= 0} f(p**e)/p**e) ** -1.

    Requires A1 < p for every prime p | d so the local series converges;
    series are truncated once terms fall below 1e-18 of the partial sum.
    """
    fac = d if isinstance(d, Factorization) else factorize(
        int(d), table_upto(table, max(isqrt_ceil(int(d)), 2))
    )
    out = 1.0
    for p, _ in fac.parts:
        if f.A1 >= p:
            raise ValueError(
                f"local series at p={p} not dominated: A1={f.A1} >= p"
            )
        total = 1.0
        pk = 1.0
        for e in range(1, 400):
            pk *= p
            term = float(f.rule(p, e)) / pk
            total += term
            if term < 1e-18 * total:
                break
        out /= total
    return out


def isqrt_ceil(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r >= n else r + 1


__all__ = [
    "MultiplicativeFunction",
    "eval_mf",
    "values_upto",
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
    "harmonic_mean_ratio",
    "ClassCheckReport",
    "class_check",
    "coprimality_factor",
]
