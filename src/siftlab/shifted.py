"""Shifted primes: divisor statistics, the Carmichael-image test, and
prime-factor counts at polynomial arguments.

The deviations of omega over the exact sets a*p + b and the values of a
binary quadratic form are histograms over those sets (specs.SetSpec), run
by the dev path of the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from . import bulk
from .arith import (
    PrimeTable,
    factorize,
    table_upto,
)
from .errors import ResourceBudgetError
from .table import eta0

# joint_poly_omega factors by trial division; a prime table it needs past this raises
TRIAL_LIMIT = 10**7


@dataclass
class ShiftedDivisorReport:
    a: int
    u: int
    v: int
    x: int
    y: int
    count: int
    pi_x: int
    normalized: float     # count / pi(x)
    bound_ratio: float    # normalized * (log y)**eta0 * sqrt(log log y)


def _lcm_window(lo: int, hi: int, cs: np.ndarray) -> np.ndarray:
    """For m in [lo, hi), the lcm of the c in the sorted cs that divide m (1 if none).

    A c up to isqrt(hi - 1) strides over its multiples; the larger c go one
    cofactor j at a time, so both loops stay below the root.  The lcm
    divides m, so uint32 holds it below 2**32.
    """
    acc = np.ones(hi - lo, dtype=np.uint32 if hi <= 1 << 32 else np.int64)
    cut = np.searchsorted(cs, isqrt(hi - 1), side="right")
    for c in cs[:cut].tolist():
        view = acc[-lo % c :: c]
        np.lcm(view, c, out=view)
    big = cs[cut:]
    for j in range(1, (hi - 1) // int(big[0]) + 1 if big.size else 1):
        i0, i1 = np.searchsorted(big, (-(-lo // j), (hi - 1) // j + 1))
        pos = big[i0:i1] * j - lo
        acc[pos] = np.lcm(acc[pos], big[i0:i1])
    return acc


def _count_hits(ms: np.ndarray, cs: np.ndarray, hit, threads: int) -> int:
    """How many m in the sorted ms have hit(_lcm_window value at m, m), window by window."""
    def worker(lo: int, hi: int) -> int:
        i0, i1 = np.searchsorted(ms, (lo, hi))
        m = ms[i0:i1]
        return int(np.count_nonzero(hit(_lcm_window(lo, hi, cs)[m - lo], m))) if m.size else 0

    top = int(ms[-1]) if ms.size else 0
    return sum(bulk.stream_windows(worker, bulk.window_ranges(1, top + 1), threads))


def shifted_divisor_count(
    a: int, u: int, v: int, x: int, y: int,
    table: PrimeTable | None = None, threads: int = 1,
) -> ShiftedDivisorReport:
    """Count primes p <= x such that u*p + v has a divisor d > y with d + a prime.

    Each such d is q - a for a prime q; p counts when one divides m = |u*p + v|.
    """
    if a == 0:
        raise ValueError("shift a must be nonzero")
    if u < 1:
        raise ValueError("need u >= 1")
    if x < 3 or y < 3:
        raise ValueError("need x, y >= 3")
    hi = u * x + abs(v) + abs(a) + 1
    table = table_upto(table, hi)
    ps = table.primes[table.primes <= x]
    ms = np.abs(u * ps + v)
    ms = np.sort(ms[ms > 1])
    ds = table.primes - a
    ds = ds[(ds > y) & (ds <= (ms[-1] if ms.size else 0))]
    count = _count_hits(ms, ds, lambda lcm_d, m: lcm_d > 1, threads)
    pi_x = len(ps)
    normalized = count / pi_x if pi_x else 0.0
    lly = math.log(math.log(y))
    bound_ratio = normalized * math.log(y) ** eta0() * math.sqrt(lly)
    return ShiftedDivisorReport(
        a=a, u=u, v=v, x=x, y=y, count=count, pi_x=pi_x,
        normalized=normalized, bound_ratio=bound_ratio,
    )


def _lambda_classes(primes: np.ndarray, top: int) -> np.ndarray:
    """The c <= top, 2**k and (q - 1) * q**e for odd primes q, whose lcm over c | m
    is L(m), the lcm of 2**v_2(m) and of (q - 1) * q**v_q(m) over the q with
    (q - 1) | m.  m >= 1 is a value of Carmichael lambda iff L(m) == m."""
    parts = [1 << np.arange(1, top.bit_length(), dtype=np.int64)]
    qs = primes[(primes >= 3) & (primes <= top + 1)]
    cs = qs - 1
    while cs.size:
        parts.append(cs)
        keep = cs <= top // qs
        cs, qs = cs[keep] * qs[keep], qs[keep]
    cs = np.sort(np.concatenate(parts))
    return cs[np.diff(cs, prepend=0) > 0]


def lambda_image_intersection(
    u: int, v: int, x: int, table: PrimeTable | None = None, threads: int = 1
) -> tuple[int, int]:
    """(count, pi) where count = #{p prime : u*p + v in [1, x] is a lambda value}.

    pi counts the primes p with u*p + v in [1, x].  Each window of m sieves
    L(m) by divisor class, and m is a lambda value iff L(m) == m.
    """
    if u < 1:
        raise ValueError("need u >= 1")
    if x < 1:
        raise ValueError("need x >= 1")
    p_hi = (x - v) // u
    # q - 1 = m reaches x, so the odd primes q run to x + 1
    table = table_upto(table, max(p_hi, x + 1))
    ms = u * table.primes[table.primes <= p_hi] + v
    ms = ms[(ms >= 1) & (ms <= x)]
    classes = _lambda_classes(table.primes, int(ms[-1]) if ms.size else 0)
    return _count_hits(ms, classes, np.equal, threads), len(ms)


def poly_eval(coeffs: tuple[int, ...], t: int) -> int:
    """Evaluate a polynomial given by ascending coefficients."""
    out = 0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def poly_degree(coeffs: tuple[int, ...]) -> int:
    deg = -1
    for i, c in enumerate(coeffs):
        if c != 0:
            deg = i
    return deg


def _check_poly_system(polys: list[tuple[int, ...]]) -> None:
    if not 1 <= len(polys) <= 3:
        raise ValueError("need between 1 and 3 polynomials")
    if len(set(polys)) != len(polys):
        raise ValueError("polynomials must be distinct")
    degs = [poly_degree(q) for q in polys]
    for q, deg in zip(polys, degs):
        if not 1 <= deg <= 3:
            raise ValueError("each polynomial must have degree between 1 and 3")
        if q[0] == 0:
            raise ValueError("polynomials must not vanish at 0")
        if deg >= 2 and _has_rational_root(q, deg):
            raise ValueError("polynomials of degree 2 or 3 must have no rational root")
    # no fixed prime factor: the product polynomial must miss a residue mod
    # every small prime
    prod_deg = sum(degs)
    for p in bulk.primes_upto(prod_deg + 1).tolist():
        hit = [False] * p
        for t in range(p):
            for q in polys:
                if poly_eval(q, t) % p == 0:
                    hit[t] = True
                    break
        if all(hit):
            raise ValueError(f"system has the fixed prime factor {p}")


def _has_rational_root(q: tuple[int, ...], deg: int) -> bool:
    """Rational-root test: candidates r/s with r | constant, s | leading."""
    lead, const = q[deg], q[0]
    for r in _divisors(abs(const)):
        for s in _divisors(abs(lead)):
            if gcd(r, s) != 1:
                continue
            # s**deg * q(r/s), cleared of denominators, at +r/s and -r/s
            pos = sum(c * r**i * s ** (deg - i) for i, c in enumerate(q[: deg + 1]))
            neg = sum(c * (-r) ** i * s ** (deg - i) for i, c in enumerate(q[: deg + 1]))
            if pos == 0 or neg == 0:
                return True
    return False


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1, by trial division up to isqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def joint_poly_omega(
    polys: list[tuple[int, ...]],
    x: int, y: int,
    targets: tuple[int, ...],
    table: PrimeTable | None = None,
) -> int:
    """Count primes p in (x - y, x] with omega(Q_j(p)) = k_j for every j.

    Each value is factored by trial division over a prime table reaching the
    square root of the largest value, so the leftover cofactor is 1 or prime;
    a required table above TRIAL_LIMIT raises a budget error instead.
    """
    _check_poly_system(polys)
    if len(targets) != len(polys):
        raise ValueError("need one target per polynomial")
    if not 3 <= y <= x:
        raise ValueError("need 3 <= y <= x")
    vmax = max(
        sum(abs(c) * x**i for i, c in enumerate(q)) for q in polys
    )
    root = isqrt(vmax) + 1
    if root > TRIAL_LIMIT:
        raise ResourceBudgetError(
            f"factoring needs primes to {root}, over the limit {TRIAL_LIMIT}"
        )
    need = max(x, root, 2)
    table = table_upto(table, need)
    lo = x - y
    ps = table.primes[(table.primes > lo) & (table.primes <= x)]
    count = 0
    for p in ps.tolist():
        ok = True
        for q, k in zip(polys, targets):
            val = abs(poly_eval(q, p))
            if val == 0 or len(factorize(val, table).parts) != k:
                ok = False
                break
        if ok:
            count += 1
    return count


def ap_prime_factor_count(
    x: int, d: int, a: int, g_kind: str, k: int,
    table: PrimeTable | None = None, threads: int = 1,
) -> int:
    """Count n <= x with n = a mod d and omega(n) or bigomega(n) equal to k.

    Each window of [1, x] counts its class members on its own, so only
    primes up to isqrt(x) and one counts window per thread are held.
    """
    if x < 1 or d < 1:
        raise ValueError("need x >= 1 and d >= 1")
    if gcd(a, d) != 1:
        raise ValueError("need gcd(a, d) = 1")
    if g_kind not in ("omega", "bigomega"):
        raise ValueError(f"unknown statistic {g_kind!r}")
    primes = table_upto(table, max(isqrt(x), 2)).primes

    def hits(lo: int, hi: int) -> int:
        g = bulk.counts_window(lo, hi, primes, g_kind)
        return int(np.count_nonzero(g[(a - lo) % d :: d] == k))

    return sum(bulk.stream_windows(hits, bulk.window_ranges(1, x + 1), threads))


__all__ = [
    "ShiftedDivisorReport",
    "shifted_divisor_count",
    "lambda_image_intersection",
    "poly_eval",
    "poly_degree",
    "joint_poly_omega",
    "ap_prime_factor_count",
]
