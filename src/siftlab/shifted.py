"""Shifted primes: divisor statistics, the Carmichael-image test, deviations
over exact arithmetic sets, and prime-factor counts at polynomial arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd, isqrt, lcm

import numpy as np

from . import bulk
from .arith import (
    PrimeTable,
    divisors,
    factorize,
    is_prime,
    kronecker,
    table_upto,
    valuation,
)
from .errors import ResourceBudgetError
from .hist import DeviationReport, deviation, weighted_histogram
from .multfunc import MultiplicativeFunction, one
from .primesets import ALL_PRIMES, PrimeSubset
from .sift import QuadraticForm, exact_qf_shifted, exact_qf_values, exact_shifted_primes
from .table import eta0


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
    return sum(bulk.run_windows(worker, bulk.window_ranges(1, top + 1), threads))


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


def is_lambda_value(n: int, table: PrimeTable | None = None) -> bool:
    """Whether n is a value of the Carmichael lambda function.

    n is a value iff n equals the lcm of the prime-power lambda values that
    divide n.  Candidate odd prime powers q**e come from divisors d of n
    with q = d + 1 prime (then e = v_q(n) + 1 and the contribution
    q**v_q(n) * (q - 1) automatically divides n); the 2-part contributes
    2**v_2(n) when n is even.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2 == 1:
        return n == 1  # lambda is even everywhere past 2
    fac = factorize(n, table_upto(table, max(isqrt(n), 2)))
    L = 1 << valuation(n, 2)
    for d in divisors(fac):
        if d < 2 or not is_prime(d + 1, table):
            continue
        q = d + 1
        contrib = q ** valuation(n, q) * d
        L = lcm(L, contrib)
        if L == n:
            return True
    return L == n


def _lambda_classes(primes: np.ndarray, top: int) -> np.ndarray:
    """The c <= top, 2**k and (q - 1) * q**e for odd primes q, whose lcm over c | m
    is the L(m) is_lambda_value compares with m: of 2**v_2(m) and of
    (q - 1) * q**v_q(m) over the q with (q - 1) | m."""
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


def weighted_sp_deviation(
    a: int, b: int,
    f: MultiplicativeFunction,
    E: PrimeSubset,
    x: int, lam: float,
    g_kind: str = "omega",
    table: PrimeTable | None = None,
    threads: int = 1,
) -> DeviationReport:
    """Deviation of g(a*p + b, E) from its prime-sum mean over shifted primes."""
    table = table_upto(table, max(x, 2))
    sset = exact_shifted_primes(a, b, x, table)
    hist = weighted_histogram(sset, f, g_kind, E, table, threads)
    return deviation(hist, lam, table=table)


def qf_deviation(
    form: QuadraticForm,
    E: PrimeSubset,
    x: int, lam: float,
    shift: int | None = None,
    g_kind: str = "omega",
    p0: int | None = None,
    table: PrimeTable | None = None,
    threads: int = 1,
) -> DeviationReport:
    """Deviation of g(n, E) over represented values of a definite form.

    E must consist of primes splitting for the form's discriminant; this is
    validated against the Kronecker symbol before any counting.
    """
    table = table_upto(table, max(x, 2))
    ps = table.primes[table.primes <= x]
    sel = ps[np.asarray(E.mask(ps), dtype=bool)].tolist()
    for p in sel:
        if kronecker(form.disc, p) != 1:
            raise ValueError(
                f"prime {p} in E does not split: kronecker({form.disc}, {p}) != +1"
            )
    if p0 is not None and sel and sel[0] < p0:
        raise ValueError(f"smallest prime {sel[0]} in E is below the floor {p0}")
    sset = (
        exact_qf_values(form, x)
        if shift is None
        else exact_qf_shifted(form, shift, x, table)
    )
    hist = weighted_histogram(sset, one(), g_kind, E, table, threads)
    return deviation(hist, lam, table=table)


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


def poly_roots_mod_p(coeffs: tuple[int, ...], p: int) -> int:
    """Number of roots of the polynomial mod p, by direct scan."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    red = [c % p for c in coeffs]
    if all(c == 0 for c in red):
        return p
    return sum(1 for t in range(p) if poly_eval(tuple(red), t) % p == 0)


def poly_mertens_deviation(
    coeffs: tuple[int, ...], x: int, table: PrimeTable | None = None
) -> float:
    """Sup over t in [2, x] of |sum_{p <= t} roots(Q, p)/p - log log t|.

    A diagnostic companion to joint_poly_omega; root counts come from the
    residue scan, so x is capped to keep the quadratic work honest.
    """
    if poly_degree(coeffs) < 1:
        raise ValueError("need a nonconstant polynomial")
    if x < 2:
        raise ValueError("need x >= 2")
    if x > 10**5:
        raise ResourceBudgetError("residue scans above 1e5 are quadratic work")
    table = table_upto(table, x)
    ps = table.primes[table.primes <= x]
    acc = 0.0
    best = 0.0
    for i, p in enumerate(ps.tolist()):
        rho = poly_roots_mod_p(coeffs, p)
        acc += rho / p
        best = max(best, abs(acc - math.log(math.log(p))))
        nxt = float(ps[i + 1]) if i + 1 < len(ps) else float(x)
        best = max(best, abs(acc - math.log(math.log(nxt))))
    return best


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
    t = PrimeTable(max(2, isqrt(max(abs(const), abs(lead)))))
    for r in divisors(factorize(abs(const), t)):
        for s in divisors(factorize(abs(lead), t)):
            if gcd(r, s) != 1:
                continue
            # s**deg * q(r/s), cleared of denominators, at +r/s and -r/s
            pos = sum(c * r**i * s ** (deg - i) for i, c in enumerate(q[: deg + 1]))
            neg = sum(c * (-r) ** i * s ** (deg - i) for i, c in enumerate(q[: deg + 1]))
            if pos == 0 or neg == 0:
                return True
    return False


def joint_poly_omega(
    polys: list[tuple[int, ...]],
    x: int, y: int,
    targets: tuple[int, ...],
    table: PrimeTable | None = None,
    trial_limit: int = 10**7,
) -> int:
    """Count primes p in (x - y, x] with omega(Q_j(p)) = k_j for every j.

    Each value is factored by trial division over a prime table reaching the
    square root of the largest value, so the leftover cofactor is 1 or prime;
    a required table above trial_limit raises a budget error instead.
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
    if root > trial_limit:
        raise ResourceBudgetError(
            f"factoring needs primes to {root}, over the limit {trial_limit}"
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
    """Count n <= x with n = a mod d and omega(n) or bigomega(n) equal to k."""
    if x < 1 or d < 1:
        raise ValueError("need x >= 1 and d >= 1")
    if gcd(a, d) != 1:
        raise ValueError("need gcd(a, d) = 1")
    if g_kind not in ("omega", "bigomega"):
        raise ValueError(f"unknown statistic {g_kind!r}")
    table = table_upto(table, max(x, 2))
    g = bulk.counts_range(x, table.primes, g_kind, threads=threads)
    ns = np.arange(x + 1, dtype=np.int64)
    mask = (g == k) & (ns % d == a % d)
    mask[0] = False
    return int(np.count_nonzero(mask))


__all__ = [
    "ShiftedDivisorReport",
    "shifted_divisor_count",
    "is_lambda_value",
    "lambda_image_intersection",
    "weighted_sp_deviation",
    "qf_deviation",
    "poly_eval",
    "poly_degree",
    "poly_roots_mod_p",
    "joint_poly_omega",
    "ap_prime_factor_count",
]
