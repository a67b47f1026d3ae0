"""Shifted primes: divisor statistics, the Carmichael-image test, and
prime-factor counts at polynomial arguments.

Every count here is one ordered stream of windows and factors nothing one
prime at a time.  joint_poly_omega takes each window's primes from a flags
window and finds omega of every Q_j(p) at once, by blocked trial division
over the primes up to the root of the largest value.

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
from .arith import PrimeTable, table_upto
from .errors import ResourceBudgetError
from .table import eta0

# joint_poly_omega factors by trial division; a trial_root past this raises
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


def poly_values(coeffs: tuple[int, ...], t):
    """Q(t) by Horner's rule, for Q given by ascending coefficients and t an int or an
    int64 array; each partial sum is at most the sum of |c_i| * |t|**i."""
    out = 0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def poly_degree(coeffs: tuple[int, ...]) -> int:
    return max((i for i, c in enumerate(coeffs) if c != 0), default=-1)


def _check_poly_system(polys: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The polys without trailing zero coefficients, once they form an admissible system."""
    polys = [q[: poly_degree(q) + 1] for q in polys]
    if not 1 <= len(polys) <= 3:
        raise ValueError("need between 1 and 3 polynomials")
    if len(set(polys)) != len(polys):
        raise ValueError("polynomials must be distinct")
    for q in polys:
        deg = len(q) - 1
        if not 1 <= deg <= 3:
            raise ValueError("each polynomial must have degree between 1 and 3")
        if q[0] == 0:
            raise ValueError("polynomials must not vanish at 0")
        if deg >= 2 and _has_rational_root(q, deg):
            raise ValueError("polynomials of degree 2 or 3 must have no rational root")
        if gcd(*q) > 1:  # a prime of the content divides every value
            raise ValueError(f"system has the fixed prime factor {_divisors(gcd(*q))[1]}")
    # no other fixed prime factor: the product polynomial must miss a residue
    # mod every prime up to its degree + 1; above that, it vanishes everywhere
    # mod p only when p divides some polynomial's content
    for p in bulk.primes_upto(sum(len(q) - 1 for q in polys) + 1).tolist():
        if np.any([poly_values(q, np.arange(p)) % p == 0 for q in polys], axis=0).all():
            raise ValueError(f"system has the fixed prime factor {p}")
    return polys


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


def trial_root(polys: list[tuple[int, ...]], x: int) -> int:
    """isqrt(max over j of sum |c_i| * x**i) + 1, past every |Q_j(t)| with |t| <= x,
    and at least isqrt(x): the primes joint_poly_omega sieves and divides by."""
    vmax = max(sum(abs(c) * x**i for i, c in enumerate(q)) for q in polys)
    return max(isqrt(vmax) + 1, isqrt(x))


def _omega(v: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """omega(|v|) for int64 v (0 for v = 0), by trial division over the sorted primes,
    which reach sqrt(max |v|).

    A block of primes tests every value still open at once, block x values within
    bulk.DEFAULT_WINDOW entries, and divides each of its primes out where it divides.
    A value closes once the next prime's square passes what is left of it; a leftover
    above 1 is then one more prime.
    """
    count = np.zeros(v.size, dtype=np.int64)
    live = np.flatnonzero(np.abs(v) > 1)
    rem = np.abs(v[live])
    k = 0
    while live.size:
        qs = primes[k : k + max(1, bulk.DEFAULT_WINDOW // live.size)]
        k += qs.size
        i, j = np.nonzero(rem % qs[:, None] == 0)
        count[live] += np.bincount(j, minlength=live.size)
        while j.size:
            np.floor_divide.at(rem, j, qs[i])
            still = rem[j] % qs[i] == 0
            i, j = i[still], j[still]
        done = rem < (int(primes[k]) ** 2 if k < primes.size else 1 << 62)
        count[live[done]] += rem[done] > 1
        live, rem = live[~done], rem[~done]
    return count


def joint_poly_omega(
    polys: list[tuple[int, ...]],
    x: int, y: int,
    targets: tuple[int, ...],
    threads: int = 1,
) -> int:
    """Count primes p in (x - y, x] with omega(Q_j(p)) = k_j for every j.

    One ordered stream over the windows of (x - y, x]: each takes its primes
    from a flags window, evaluates each Q_j at those still counted and keeps
    the p with Q_j(p) != 0 and omega(Q_j(p)) = k_j.  The values are factored
    by trial division over the primes to trial_root; a root above TRIAL_LIMIT
    raises a budget error instead, and below it every |Q_j(p)| < 10**14 fits
    int64.
    """
    polys = _check_poly_system(polys)
    if len(targets) != len(polys):
        raise ValueError("need one target per polynomial")
    if not 3 <= y <= x:
        raise ValueError("need 3 <= y <= x")
    root = trial_root(polys, x)
    if root > TRIAL_LIMIT:
        raise ResourceBudgetError(f"factoring needs primes to {root}, over the limit {TRIAL_LIMIT}")
    primes = bulk.primes_upto(root)

    def hits(lo: int, hi: int) -> int:
        ps = lo + np.flatnonzero(bulk.flags_window(lo, hi, primes))
        for q, k in zip(polys, targets):
            v = poly_values(q, ps)
            ps = ps[(v != 0) & (_omega(v, primes) == k)]
        return ps.size

    return sum(bulk.stream_windows(hits, bulk.window_ranges(x - y + 1, x + 1), threads))


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
    "poly_values",
    "poly_degree",
    "trial_root",
    "joint_poly_omega",
    "ap_prime_factor_count",
]
