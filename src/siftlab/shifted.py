"""Shifted primes: divisor statistics, the Carmichael-image test, and
prime-factor counts at polynomial arguments.

Every count here is one ordered stream of windows and factors nothing one
prime at a time.  spd and lambda-image sieve each window of m by divisor
class: a class up to the window's root strides over its multiples, and the
larger classes come in batches of at most bulk.CHUNK (class, cofactor)
pairs, found by one searchsorted of the cofactor bounds, so no Python loop
runs per cofactor and the work runs in numpy, a window per thread.  spd
marks a bool window; lambda-image applies np.lcm.at at the window's m only.
joint_poly_omega takes each window's primes from a flags window and finds
omega of every Q_j(p) at once, by blocked trial division over the primes
up to the root of the largest value, BLOCK entries a block.

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
from .arith import PrimeTable
from .errors import ResourceBudgetError
from .table import eta0

# joint_poly_omega factors by trial division; a trial_root past this raises
TRIAL_LIMIT = 10**7
BLOCK = 2 * bulk.CHUNK  # entries (primes x open values) per block of that trial division


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


def _cofactor_batches(lo: int, hi: int, cs: np.ndarray):
    """(c, c * j - lo) for each c in the sorted cs, all above isqrt(hi - 1), and each
    cofactor j with c * j in [lo, hi), in batches of at most bulk.CHUNK entries.

    Every such j is below the root.  One searchsorted of the j-bounds
    ceil(lo / j) and (hi - 1) // j finds each j's run of cs, and bulk.runs
    gathers the runs end to end, j-major.
    """
    if not cs.size:
        return
    j = np.arange(1, (hi - 1) // int(cs[0]) + 1)
    i0 = np.searchsorted(cs, -(-lo // j))
    cnt = np.searchsorted(cs, (hi - 1) // j, side="right") - i0
    for pos, i in bulk.runs(i0, cnt, j):  # pos holds each entry's j until scaled
        c = cs[i]
        pos *= c
        pos -= lo
        yield c, pos


def _lcm_window(lo: int, hi: int, cs: np.ndarray, at: np.ndarray) -> np.ndarray:
    """For m = lo + i, i in the offsets at, the lcm of the c in the sorted cs that
    divide m (1 if none); 1 at the other m of [lo, hi).

    A c up to isqrt(hi - 1) strides over the wanted flags of its multiples
    and applies np.lcm at the wanted ones.  The larger c come in batches
    (_cofactor_batches), of which only the entries at an offset in at are
    applied, with np.lcm.at.  The lcm divides m, so uint32 holds it below
    2**32.
    """
    acc = np.ones(hi - lo, dtype=np.uint32 if hi <= 1 << 32 else np.int64)
    want = np.zeros(hi - lo, dtype=bool)
    want[at] = True
    cut = np.searchsorted(cs, isqrt(hi - 1), side="right")
    for c in cs[:cut].tolist():
        s = -lo % c
        hit = np.flatnonzero(want[s::c])
        hit *= c
        hit += s
        acc[hit] = np.lcm(acc[hit], c)
    for c, pos in _cofactor_batches(lo, hi, cs[cut:]):
        keep = want[pos]
        np.lcm.at(acc, pos[keep], c[keep].astype(acc.dtype, copy=False))
    return acc


def _divisor_marks(lo: int, hi: int, cs: np.ndarray) -> np.ndarray:
    """For m in [lo, hi), whether some c in the sorted cs divides m: a bool window that
    the c up to isqrt(hi - 1) mark by stride and the larger c by batch."""
    marks = np.zeros(hi - lo, dtype=bool)
    cut = np.searchsorted(cs, isqrt(hi - 1), side="right")
    for c in cs[:cut].tolist():
        marks[-lo % c :: c] = True
    for _, pos in _cofactor_batches(lo, hi, cs[cut:]):
        marks[pos] = True
    return marks


def _count_hits(ms: np.ndarray, hits, threads: int) -> int:
    """How many m in the sorted ms are hits, window by window: hits(lo, hi, at) gives a
    bool for each offset m - lo in at of the window's m."""
    def worker(lo: int, hi: int) -> int:
        i0, i1 = np.searchsorted(ms, (lo, hi))
        return int(np.count_nonzero(hits(lo, hi, ms[i0:i1] - lo))) if i1 > i0 else 0

    top = int(ms[-1]) if ms.size else 0
    return sum(bulk.stream_windows(worker, bulk.window_ranges(1, top + 1), threads))


def shifted_divisor_count(
    a: int, u: int, v: int, x: int, y: int, threads: int = 1,
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
    table = PrimeTable(hi)
    pi_x = table.pi(x)
    ms = table.primes[:pi_x] * u
    ms += v
    np.abs(ms, out=ms)
    ms.sort()
    ms = ms[np.searchsorted(ms, 2) :]
    top = int(ms[-1]) if ms.size else 0
    # the d = q - a in (y, top], one int64 array as long as the classes
    ds = table.primes[table.pi(y + a) : table.pi(top + a)] - a
    count = _count_hits(ms, lambda lo, hi, at: _divisor_marks(lo, hi, ds)[at], threads)
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
    (q - 1) | m.  m >= 1 is a value of Carmichael lambda iff L(m) == m.

    Only the q - 1 are many.  The few others, 2**k and the (q - 1) * q**e with
    e >= 1 (so q <= isqrt(top) + 1), are inserted into them in one copy.
    """
    qs = primes[np.searchsorted(primes, 3) : np.searchsorted(primes, top + 1, side="right")]
    parts = [1 << np.arange(1, top.bit_length(), dtype=np.int64)]
    q = qs[: np.searchsorted(qs, isqrt(top) + 1, side="right")]
    cs = q - 1
    while cs.size:
        keep = cs <= top // q
        cs, q = cs[keep] * q[keep], q[keep]
        parts.append(cs)
    extra = np.sort(np.concatenate(parts))
    extra = extra[np.diff(extra, prepend=0) > 0] + 1  # as q is stored, one above the class
    at = np.searchsorted(qs, extra)
    new = qs[np.minimum(at, qs.size - 1)] != extra  # qs is empty only if extra is
    out = np.insert(qs, at[new], extra[new])
    out -= 1
    return out


def lambda_image_intersection(u: int, v: int, x: int, threads: int = 1) -> tuple[int, int]:
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
    table = PrimeTable(max(p_hi, x + 1))
    ms = table.primes[: table.pi(p_hi)] * u  # u*p + v <= x for every p <= p_hi
    ms += v
    ms = ms[np.searchsorted(ms, 1) :]
    classes = _lambda_classes(table.primes, int(ms[-1]) if ms.size else 0)
    lam = lambda lo, hi, at: _lcm_window(lo, hi, classes, at)[at] == at + lo
    return _count_hits(ms, lam, threads), len(ms)


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
    BLOCK entries (one prime at least), and divides each of its primes out where it
    divides.
    A value closes once the next prime's square passes what is left of it; a leftover
    above 1 is then one more prime.
    """
    count = np.zeros(v.size, dtype=np.int64)
    live = np.flatnonzero(np.abs(v) > 1)
    rem = np.abs(v[live])
    k = 0
    while live.size:
        qs = primes[k : k + max(1, BLOCK // live.size)]
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
    x: int, d: int, a: int, g_kind: str, k: int, threads: int = 1,
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
    primes = PrimeTable(max(isqrt(x), 2)).primes

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
