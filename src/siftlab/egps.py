"""Prime-factor statistics of sigma(n) and of aliquot sums s(n) = sigma(n) - n.

The workhorse is one divisor-sum sieve run as an ordered stream of
n-windows (_sigma_bins): each window computes sigma(n), a key turns it into
the statistic's integer per n, and multfunc.weighted_bins bins the keys,
with a weight other than one computed for the same window
(multfunc.window_weights), so neither the keys nor the weights make an
array of length x.  egps reads omega(s(n)) from a table of distinct
prime-factor counts, 4 bits per odd integer (bulk.OmegaTable), sized to
Robin's bound on max s(n) (aliquot_bound) but filled only as far as the
largest s(n) seen so far: its resident part is a quarter byte per integer
up to max s(n), which is about 4.1 x at x = 1e9.  Everything is exact;
nothing is sampled or estimated.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import bulk
from .arith import PrimeTable, is_prime
from .multfunc import MultiplicativeFunction, mertens_sum, weighted_bins, window_weights
from .primesets import ALL_PRIMES

GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)  # the lam at which egps_deviation reports a grid mass


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
    unfactored: int             # always 0: the sigma windows are exact
    grid: list[tuple[float, float]] = field(default_factory=list)
    grid_mass: list[float] = field(default_factory=list)  # unnormalized mass per grid lam


def aliquot_bound(x: int) -> int:
    """S >= s(n) = sigma(n) - n for every 2 <= n <= x.

    Robin (1984): sigma(n) < e**gamma n log log n + 0.6483 n / log log n for
    n >= 3.  So s(n) < n (e**gamma log log n + 0.6483 / log log n - 1),
    which grows with n from n = 16 on; its value at max(x, 16) covers every
    n <= x.
    """
    x = max(x, 16)
    ll = math.log(math.log(x))
    return int(x * (np.exp(np.euler_gamma) * ll + 0.6483 / ll - 1))


def _sigma_bins(x: int, f: MultiplicativeFunction, primes, key, threads: int) -> np.ndarray:
    """bins[k] = sum of f(n), added in ascending n, over 2 <= n <= x with key k.

    key(a, b, s) gives the integer or bool keys of the window [a, b) from
    s = sigma(n) there, an int64 buffer each stream thread reuses, which key
    may overwrite but must not return.  For f = one the bins are exact int64
    counts and primes may be None; otherwise primes must reach isqrt(x).
    """
    bufs = threading.local()  # one sigma window per stream thread, reused

    def keys(a: int, b: int) -> np.ndarray:
        if not hasattr(bufs, "s"):
            bufs.s = np.empty(bulk.DEFAULT_WINDOW, dtype=np.int64)
        return key(a, b, bulk.sigma_window(a, b, out=bufs.s[: b - a]))

    return weighted_bins(2, x + 1, keys, weights=window_weights(f, primes), threads=threads)


def egps_deviation(
    x: int,
    f: MultiplicativeFunction,
    lam: float | None = None,
    c0: float | None = None,
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

    # the weights read no table for f = one, else primes up to isqrt(x) only
    primes = None if f.is_one() else PrimeTable(math.isqrt(x) + 1).primes
    om = bulk.OmegaTable(aliquot_bound(x))

    def omega_of_s(a: int, b: int, s: np.ndarray) -> np.ndarray:
        for c, d in bulk.window_ranges(a, b, bulk.CHUNK):  # s(n) >= 1 for n >= 2
            s[c - a : d - a] -= np.arange(c, d, dtype=np.int64)
        return om.take(s)

    bins = _sigma_bins(x, f, primes, omega_of_s, threads)
    total = 1.0 + float(bins.sum())  # n = 1 (f(1) = 1) stays in the normalization

    def cutoffs(lam_: float) -> tuple[int, int]:
        thr = lam_ * math.sqrt(llx)
        return math.floor(llx - thr), math.ceil(llx + thr)

    def mass_at(lam_: float) -> float:
        k_low, k_high = cutoffs(lam_)
        return float(bins[: max(k_low + 1, 0)].sum() + bins[k_high:].sum())

    k_low, k_high = cutoffs(lam)
    mass = mass_at(lam)
    grid_mass = [mass_at(g) for g in GRID]
    return EgpsReport(
        x=x, lam=lam, loglog=llx, k_low=k_low, k_high=k_high,
        mass=mass, total=total, normalized=mass / total,
        excluded=1, unfactored=0,
        grid=[(g, m / total) for g, m in zip(GRID, grid_mass)], grid_mass=grid_mass,
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
    threads: int = 1,
) -> CountReport:
    """Weighted count of n <= x with p | sigma(n), with its reference bound."""
    if x < 3:
        raise ValueError("need x >= 3")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    table = PrimeTable(x)

    def hits(a: int, b: int, s: np.ndarray) -> np.ndarray:
        s %= p
        return s == 0

    bins = _sigma_bins(x, f, table.primes, hits, threads)
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
    threads: int = 1,
) -> float:
    """Weighted count of n <= x with d | s(n), largest prime factor above y,
    and that factor unsquared; requires d <= z <= y.  The lpf windows and the
    weights read primes only up to isqrt(x)."""
    if x < 3:
        raise ValueError("need x >= 3")
    if not 1 <= d <= z <= y <= x:
        raise ValueError("need 1 <= d <= z <= y <= x")
    table = PrimeTable(max(math.isqrt(x), 2))

    def hits(a: int, b: int, s: np.ndarray) -> np.ndarray:
        s -= np.arange(a, b, dtype=np.int64)
        s %= d
        lpf = bulk.lpf_window(a, b, table.primes)
        hit = lpf > y
        hit &= s == 0
        lpf *= lpf  # and the largest prime factor unsquared: lpf**2 does not divide n
        np.remainder(np.arange(a, b, dtype=np.int64), lpf, out=lpf)
        hit &= lpf != 0
        return hit

    bins = _sigma_bins(x, f, table.primes, hits, threads)
    return float(bins[1:].sum())  # bin 1, or nothing when no n qualifies


def mean_omega_gcd_sigma(
    x: int,
    f: MultiplicativeFunction,
    threads: int = 1,
) -> CountReport:
    """Weighted sum of omega(gcd(sigma(n), n)) with its slow-growth bound."""
    if x < 3:
        raise ValueError("need x >= 3")
    table = PrimeTable(x)
    om = bulk.OmegaTable(x)  # gcd(sigma(n), n) <= n, so it fills as the n-stream advances

    def omega_of_gcd(a: int, b: int, s: np.ndarray) -> np.ndarray:
        np.gcd(s, np.arange(a, b, dtype=np.int64), out=s)  # gcd(sigma(n), n) in place
        return om.take(s)

    bins = _sigma_bins(x, f, table.primes, omega_of_gcd, threads)
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
    "EgpsReport",
    "aliquot_bound",
    "egps_deviation",
    "CountReport",
    "count_p_divides_sigma",
    "count_d_divides_s",
    "mean_omega_gcd_sigma",
]
