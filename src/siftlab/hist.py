"""Weighted prime-factor histograms and the bounds they are tested against.

The histogram of sum f(n) over a survivor set, binned by omega(n, E) or
bigomega(n, E), is exact; every bound here (factorial-decay shape, moment
generating sums, exponential tails, Gaussian reference) is evaluated in log
space and reported as a mass / bound ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import bulk
from .arith import PrimeTable
from .multfunc import MultiplicativeFunction, hr_constant, mertens_sum, values_upto, weighted_bins
from .primesets import ALL_PRIMES, AllPrimes, PrimeSubset
from .sift import SieveCondition, SiftedSet, nu_sum


@dataclass
class WeightedHistogram:
    """bins[k] = sum of f(n) over set members with g(n, E) = k.

    table is the prime table the bins were counted with, which reaches x, and
    cond the set's sieve condition (None for an exact set); the reports read
    their prime sums from table and their nu(p)/p sum from cond.
    """

    x: int
    g_kind: str
    E: PrimeSubset
    f: MultiplicativeFunction
    bins: dict[int, float]
    total: float
    table: PrimeTable
    cond: SieveCondition | None = None

    def mass_low(self, cutoff: float) -> float:
        """Total mass at k <= cutoff."""
        return self._mass(lambda k: k <= cutoff)

    def mass_high(self, cutoff: float) -> float:
        """Total mass at k >= cutoff."""
        return self._mass(lambda k: k >= cutoff)

    def _mass(self, keep) -> float:
        """The masses of the bins whose k keep accepts, added one at a time in ascending k.
        The builtin sum is compensated from CPython 3.12 on, so its bytes would depend on
        the interpreter."""
        total = 0.0
        for k, m in self.bins.items():
            if keep(k):
                total += m
        return total


def weighted_histogram(
    sset: SiftedSet,
    f: MultiplicativeFunction,
    g_kind: str = "omega",
    E: PrimeSubset = ALL_PRIMES,
    threads: int = 1,
) -> WeightedHistogram:
    """Exact histogram of g(n, E) over the set, weighted by f, counted with the one prime
    table to x that it builds and carries."""
    x = sset.x
    if g_kind not in ("omega", "bigomega"):
        raise ValueError(f"unknown statistic {g_kind!r}")
    table = PrimeTable(max(x, 2))
    selector = None if isinstance(E, AllPrimes) else E
    fv = None if f.is_one() else values_upto(f, x, threads)
    raw = weighted_bins(1, x + 1,
                        lambda a, b: bulk.counts_window(a, b, table.primes, g_kind, selector),
                        sset.window, None if fv is None else lambda a, b: fv[a:b], threads)
    bins = {int(k): float(m) for k, m in enumerate(raw) if m > 0}
    return WeightedHistogram(x=x, g_kind=g_kind, E=E, f=f, bins=bins, total=float(raw.sum()),
                             table=table, cond=sset.cond)


@dataclass
class HrRatioReport:
    """Per-bin ratios mass / (factorial-decay bound)."""

    x: int
    M: float                      # prime sum over E
    C: float                      # additive constant in (M + C)**k
    beta: float
    k_max: int                    # floor(beta * M); reports stop here or at the last bin
    general: dict[int, float]     # all-E bound with k! and exp(M on E-complement)
    prime_variant: dict[int, float] | None  # full-prime-set variant, (k-1)!


def _ratio(mass: float, log_bound: float, k: int, C: float) -> float:
    """mass / exp(log_bound), 0.0 for a bin of no mass; ValueError when a bin with mass
    has a bound past the doubles (an overflow, or an underflow to 0)."""
    if not mass:
        return 0.0
    try:
        return mass / math.exp(log_bound)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"C = {C} puts the bound of bin {k} outside the doubles") from None


def hr_ratio(hist: WeightedHistogram, C: float | None = None, beta: float = 2.0) -> HrRatioReport:
    """Compare histogram bins against the factorial-decay bound.

    The bound for bin k is x * (M + C)**k / (k! * log x) times
    exp(M_complement - nu_sum), nu_sum read from hist.cond; a bin of no mass
    reads 0.0.  When E is all primes the sharper variant
    with exponent k - 1 and (k - 1)! is reported as well.  Both stop at
    min(k_max, the largest occupied bin): every k past it would read 0.0.
    """
    x = hist.x
    if x < 3:
        raise ValueError("need x >= 3 so log log x > 0")
    if C is not None and not math.isfinite(C):
        raise ValueError(f"C must be finite, got {C}")
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    M = mertens_sum(hist.f, x, hist.E, hist.table)
    m_out = mertens_sum(hist.f, x, hist.E.complement(), hist.table)
    nu = nu_sum(hist.cond, x)
    if C is None:
        C = hr_constant(x)
    if M + C <= 0:
        raise ValueError("M + C must be positive")
    k_max = int(beta * M)
    logx = math.log(x)
    base = math.log(x) - math.log(logx) + (m_out - nu)
    general = {}
    prime_variant = {} if isinstance(hist.E, AllPrimes) else None
    for k in range(0, min(k_max, max(hist.bins, default=-1)) + 1):
        mass = hist.bins.get(k, 0.0)
        lb = base + k * math.log(M + C) - math.lgamma(k + 1)
        general[k] = _ratio(mass, lb, k, C)
        if prime_variant is not None and k >= 1:
            lbp = math.log(x) - math.log(logx) - nu + (k - 1) * math.log(M + C) - math.lgamma(k)
            prime_variant[k] = _ratio(mass, lbp, k, C)
    return HrRatioReport(
        x=x, M=M, C=C, beta=beta, k_max=k_max,
        general=general, prime_variant=prime_variant,
    )


def q_rate(y: float) -> float:
    """Large-deviation rate y*log(y) - y + 1, with q_rate(0) = 1."""
    if y < 0:
        raise ValueError("rate argument must be nonnegative")
    if y == 0:
        return 1.0
    return y * math.log(y) - y + 1.0


@dataclass
class MgfReport:
    x: int
    z: float
    value: float     # exact sum of f(n) * z**g(n, E) over the set
    bound: float     # (x / log x) * exp((z-1) M_E + M_all - nu)
    ratio: float


def mgf_sum(hist: WeightedHistogram, z: float) -> MgfReport:
    """Exact moment-generating sum of the histogram, sum of z**k * bins[k], with its bound."""
    x = hist.x
    if x < 3:
        raise ValueError("need x >= 3")
    if not 0 < z < math.inf:
        raise ValueError(f"z must be positive and finite, got {z}")
    if hist.g_kind == "bigomega":
        p0 = hist.E.smallest(hist.table.primes[: hist.table.pi(x)])
        if p0 is not None and z >= p0:
            raise ValueError(
                f"z = {z} leaves the valid range: need z < {p0}, the smallest prime in E"
            )
    value = 0.0
    for k in sorted(hist.bins):  # ascending k, one add at a time
        value += z**k * hist.bins[k]
    m_in = mertens_sum(hist.f, x, hist.E, hist.table)
    m_all = mertens_sum(hist.f, x, ALL_PRIMES, hist.table)
    nu = nu_sum(hist.cond, x)
    bound = x / math.log(x) * math.exp((z - 1.0) * m_in + m_all - nu)
    return MgfReport(x=x, z=z, value=value, bound=bound, ratio=value / bound)


@dataclass
class TailReport:
    x: int
    delta: float
    M: float
    mass_low: float
    mass_high: float
    bound_low: float
    bound_high: float
    ratio_low: float
    ratio_high: float


def tail_masses(hist: WeightedHistogram, delta: float) -> TailReport:
    """Exact masses below (1-delta)M and above (1+delta)M with tail bounds."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    x = hist.x
    if x < 3:
        raise ValueError("need x >= 3")
    M = mertens_sum(hist.f, x, hist.E, hist.table)
    if M <= 0:
        raise ValueError("prime sum M vanishes; tails are degenerate")
    m_all = mertens_sum(hist.f, x, ALL_PRIMES, hist.table)
    nu = nu_sum(hist.cond, x)
    mass_low = hist.mass_low((1.0 - delta) * M)
    mass_high = hist.mass_high((1.0 + delta) * M)
    pref = x / math.log(x) * math.exp(m_all - nu)
    bound_low = pref * math.exp(-q_rate(1.0 - delta) * M) / (delta * math.sqrt((1.0 - delta) * M))
    bound_high = pref * math.exp(-q_rate(1.0 + delta) * M) / (delta * math.sqrt(M))
    return TailReport(
        x=x, delta=delta, M=M,
        mass_low=mass_low, mass_high=mass_high,
        bound_low=bound_low, bound_high=bound_high,
        ratio_low=mass_low / bound_low, ratio_high=mass_high / bound_high,
    )


@dataclass
class DeviationReport:
    """Mass at |g - M| >= lam * sqrt(M), normalized, with Gaussian reference.

    The masses are taken at the integer cutoffs k_low = floor(M - lam*sqrt(M))
    (bins k <= k_low) and k_high = ceil(M + lam*sqrt(M)) (bins k >= k_high).
    On the degenerate report (M <= 0) all mass is low: k_low is the largest
    occupied bin and k_high = k_low + 1 leaves the high tail empty.
    """

    x: int
    lam: float
    M: float
    k_low: int                  # largest g in the low tail
    k_high: int                 # smallest g in the high tail
    mass_low: float
    mass_high: float
    total: float
    normalized: float
    gauss_ref: float
    degenerate: bool = False


def deviation(hist: WeightedHistogram, lam: float) -> DeviationReport:
    """Two-sided deviation masses at threshold lam standard units."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if hist.total <= 0:
        raise ValueError("empty set: total mass is zero")
    x = hist.x
    M = mertens_sum(hist.f, x, hist.E, hist.table)
    if M <= 0:
        # every bin deviates; flag rather than divide by zero in the reference
        k_low = max(hist.bins)
        return DeviationReport(
            x=x, lam=lam, M=M, k_low=k_low, k_high=k_low + 1,
            mass_low=hist.total, mass_high=0.0, total=hist.total,
            normalized=1.0, gauss_ref=math.inf, degenerate=True,
        )
    if lam > math.sqrt(M) / 2.0:
        warnings.warn(
            f"lam = {lam:g} above sqrt(M)/2 = {math.sqrt(M) / 2:g}; "
            "the Gaussian reference is unreliable here",
            stacklevel=2,
        )
    t = lam * math.sqrt(M)
    k_low, k_high = math.floor(M - t), math.ceil(M + t)
    mass_low = hist.mass_low(k_low)
    mass_high = hist.mass_high(k_high)
    return DeviationReport(
        x=x, lam=lam, M=M, k_low=k_low, k_high=k_high,
        mass_low=mass_low, mass_high=mass_high, total=hist.total,
        normalized=(mass_low + mass_high) / hist.total,
        gauss_ref=math.exp(-lam * lam / 2.0) / lam,
    )


__all__ = [
    "WeightedHistogram",
    "weighted_histogram",
    "HrRatioReport",
    "hr_ratio",
    "q_rate",
    "MgfReport",
    "mgf_sum",
    "TailReport",
    "tail_masses",
    "DeviationReport",
    "deviation",
]
