"""Prime-factor statistics of aliquot sums s(n) = sigma(n) - n.

The workhorse is a divisor-sum sieve: sigma over a range, then a distinct
prime-factor table reaching max s(n), so omega(s(n)) is a single gather.
Everything is exact; nothing is sampled or estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bulk
from .arith import PrimeTable, table_upto
from .multfunc import MultiplicativeFunction, mertens_sum, weighted_bins
from .primesets import ALL_PRIMES


@dataclass
class AliquotWindow:
    """Aliquot sums for [lo, hi): s_values[i] = s(lo + i)."""

    lo: int
    hi: int
    s_values: np.ndarray


def aliquot_window(lo: int, hi: int, threads: int = 1) -> AliquotWindow:
    if lo < 1 or lo >= hi:
        raise ValueError("need 1 <= lo < hi")
    ranges = bulk.window_ranges(lo, hi)
    parts = bulk.run_windows(lambda a, b: bulk.sigma_window(a, b), ranges, threads)
    sig = parts[0] if len(parts) == 1 else np.concatenate(parts)
    ns = np.arange(lo, hi, dtype=np.int64)
    s = sig - ns
    # crude growth cap: sigma(n) <= n * (1 + log n)
    top = float(np.max(s / np.maximum(ns, 2)))
    if top > 1.0 + math.log(hi):
        raise OverflowError("aliquot sums exceed the crude growth cap")
    return AliquotWindow(lo=lo, hi=hi, s_values=s)


def _omega_of_values(values: np.ndarray, threads: int = 1) -> np.ndarray:
    """omega at each (nonnegative) entry via one table reaching the maximum."""
    vmax = int(values.max(initial=0))
    if vmax < 1:
        return np.zeros(len(values), dtype=np.uint8)
    primes = bulk.primes_upto(max(math.isqrt(vmax), 2))
    om = bulk.counts_range(vmax, primes, "omega", threads=threads)
    return om[values]


@dataclass
class EgpsReport:
    """Mass of n <= x whose omega(s(n)) strays from log log x.

    The tail mask is built from the integer cutoffs for lam: n is counted
    when omega(s(n)) <= k_low or omega(s(n)) >= k_high, with
    k_low = floor(log log x - lam * sqrt(log log x)) and
    k_high = ceil(log log x + lam * sqrt(log log x)). A negative k_low
    means the low tail is empty.
    """

    x: int
    lam: float
    loglog: float
    k_low: int                  # largest omega(s(n)) in the low tail
    k_high: int                 # smallest omega(s(n)) in the high tail
    mass: float
    total: float
    normalized: float
    excluded: int               # n = 1, where s(n) = 0
    unfactored: int             # always 0: the sigma table path is exact
    grid: list[tuple[float, float]] = field(default_factory=list)
    grid_mass: list[float] = field(default_factory=list)  # unnormalized mass per grid lam


def egps_deviation(
    x: int,
    f: MultiplicativeFunction,
    lam: float | None = None,
    c0: float | None = None,
    grid: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
    table: PrimeTable | None = None,
    threads: int = 1,
) -> EgpsReport:
    """Weighted mass of {n <= x : |omega(s(n)) - log log x| >= lam * sqrt(log log x)}.

    Pass lam directly, or c0 to use lam = c0 * sqrt(log log log log x) (which
    needs x large enough for the fourth log to be positive).
    """
    if x < 16:
        raise ValueError("need x >= 16 so log log x > 1")
    if (lam is None) == (c0 is None):
        raise ValueError("give exactly one of lam and c0")
    llx = math.log(math.log(x))
    if c0 is not None:
        l4 = math.log(math.log(llx)) if llx > 1 else float("-inf")
        if not l4 > 0:
            raise ValueError(
                "fourth logarithm not positive at this x; pass lam directly"
            )
        lam = c0 * math.sqrt(l4)
    if lam <= 0:
        raise ValueError("lam must be positive")

    # weighted_bins reads no table for f = one, else primes up to isqrt(x) only
    table = None if f.is_one() else table_upto(table, math.isqrt(x) + 1)
    s = bulk.sigma_range(x, threads=threads)
    s -= np.arange(x + 1, dtype=np.int64)
    s[:2] = 0
    oms = _omega_of_values(s, threads)
    del s
    # bins[k] = sum of f(n) over 2 <= n <= x with omega(s(n)) = k
    bins = weighted_bins(f, oms, slice(2, None), table, threads)
    total = 1.0 + float(bins.sum())  # n = 1 (f(1) = 1) stays in the normalization

    def cutoffs(lam_: float) -> tuple[int, int]:
        thr = lam_ * math.sqrt(llx)
        return math.floor(llx - thr), math.ceil(llx + thr)

    def mass_at(lam_: float) -> float:
        k_low, k_high = cutoffs(lam_)
        return float(bins[: max(k_low + 1, 0)].sum() + bins[k_high:].sum())

    k_low, k_high = cutoffs(lam)
    mass = mass_at(lam)
    grid_mass = [mass_at(g) for g in grid]
    return EgpsReport(
        x=x, lam=lam, loglog=llx, k_low=k_low, k_high=k_high,
        mass=mass, total=total, normalized=mass / total,
        excluded=1, unfactored=0,
        grid=[(g, m / total) for g, m in zip(grid, grid_mass)], grid_mass=grid_mass,
    )


@dataclass
class CountReport:
    value: float
    bound: float | None
    ratio: float | None


def count_p_divides_sigma(
    x: int, p: int,
    f: MultiplicativeFunction,
    eps: float = 0.5,
    table: PrimeTable | None = None,
    threads: int = 1,
) -> CountReport:
    """Weighted count of n <= x with p | sigma(n), with its reference bound."""
    if x < 3:
        raise ValueError("need x >= 3")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    table = table_upto(table, x)
    if p not in table:
        raise ValueError(f"{p} is not prime")
    sig = bulk.sigma_range(x, threads=threads)
    bins = weighted_bins(f, sig % p == 0, slice(1, None), table, threads)
    value = float(bins[1:].sum())  # bin 1, or nothing when no n qualifies
    m_all = mertens_sum(f, x, ALL_PRIMES, table)
    bound = (
        (p ** (-(1.0 - eps) / 2.0) + math.log(math.log(x)) / p)
        * x / math.log(x) * math.exp(m_all)
    )
    return CountReport(value=value, bound=bound, ratio=value / bound)


def count_d_divides_s(
    x: int, y: int, z: int, d: int,
    f: MultiplicativeFunction,
    table: PrimeTable | None = None,
    threads: int = 1,
) -> float:
    """Weighted count of n <= x with d | s(n), largest prime factor above y,
    and that factor unsquared; requires d <= z <= y."""
    if x < 3:
        raise ValueError("need x >= 3")
    if not 1 <= d <= z <= y <= x:
        raise ValueError("need 1 <= d <= z <= y <= x")
    table = table_upto(table, x)
    s = bulk.sigma_range(x, threads=threads)
    ns = np.arange(x + 1, dtype=np.int64)
    s -= ns
    lpf = bulk.lpf_range(x, table.primes, threads=threads)
    mask = (lpf > y) & (ns % np.maximum(lpf * lpf, 1) != 0) & (s % d == 0)
    bins = weighted_bins(f, mask, slice(1, None), table, threads)
    return float(bins[1:].sum())  # bin 1, or nothing when no n qualifies


def mean_omega_gcd_sigma(
    x: int,
    f: MultiplicativeFunction,
    table: PrimeTable | None = None,
    threads: int = 1,
) -> CountReport:
    """Weighted sum of omega(gcd(sigma(n), n)) with its slow-growth bound."""
    if x < 3:
        raise ValueError("need x >= 3")
    table = table_upto(table, x)
    g = bulk.sigma_range(x, threads=threads)
    np.gcd(g, np.arange(x + 1, dtype=np.int64), out=g)  # gcd(sigma(n), n) in place
    om =bulk.counts_range(x, table.primes, "omega", threads=threads)
    bins = weighted_bins(f, om[g], slice(1, None), table, threads)
    value = 0.0
    for k, mass in enumerate(bins.tolist()):  # ascending k, one add at a time
        value += k * mass
    m_all = mertens_sum(f, x, ALL_PRIMES, table)
    lll = math.log(math.log(math.log(x))) if math.log(math.log(x)) > 1 else None
    l4 = math.log(lll) if lll is not None and lll > 1 else None
    bound = x / math.log(x) * math.exp(m_all) * l4 if l4 is not None and l4 > 0 else None
    return CountReport(
        value=value, bound=bound, ratio=value / bound if bound else None
    )


__all__ = [
    "AliquotWindow",
    "aliquot_window",
    "EgpsReport",
    "egps_deviation",
    "CountReport",
    "count_p_divides_sigma",
    "count_d_divides_s",
    "mean_omega_gcd_sigma",
]
