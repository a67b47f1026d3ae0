"""Exact integer arithmetic: prime tables, factor windows, classical functions.

Factorizations are the common currency; every derived quantity (divisor sum,
totient, Carmichael lambda, square-full part, ...) is computed from one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm

import numpy as np

from . import bulk
from .bulk import lambda_of_prime_power

# Strong-pseudoprime test with this base set is exact below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p**e, parts sorted by p."""

    n: int
    parts: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.parts)


class PrimeTable:
    """Primes up to a fixed limit with O(1) membership below the limit."""

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("prime table limit must be at least 2")
        self.limit = limit
        self.flags = bulk.sieve_flags(limit)
        self.primes = np.flatnonzero(self.flags)  # int64

    def __len__(self) -> int:
        return len(self.primes)

    def __contains__(self, n: int) -> bool:
        return 0 <= n <= self.limit and bool(self.flags[n])

    def pi(self, x: int | None = None) -> int:
        """Number of primes <= x (defaults to the table limit)."""
        if x is None or x >= self.limit:
            return len(self.primes)
        return int(np.searchsorted(self.primes, x, side="right"))


def table_upto(table: PrimeTable | None, limit: int) -> PrimeTable:
    """The given table when it reaches limit, else a new PrimeTable(limit)."""
    return table if table is not None and table.limit >= limit else PrimeTable(limit)


class FactorWindow:
    """Smallest-prime-factor window for [lo, hi), built segment by segment."""

    def __init__(self, lo: int, hi: int, table: PrimeTable):
        if lo < 1 or lo >= hi:
            raise ValueError("need 1 <= lo < hi")
        if table.limit < isqrt(hi - 1):
            raise ValueError("prime table too small for this window")
        self.lo = lo
        self.hi = hi
        self._table = table
        parts = [
            bulk.spf_window(a, b, table.primes)
            for a, b in bulk.window_ranges(lo, hi)
        ]
        self._spf = parts[0] if len(parts) == 1 else np.concatenate(parts)

    @property
    def spf(self) -> np.ndarray:
        """Resolved smallest prime factors; n itself when n is prime."""
        out = self._spf.astype(np.int64)
        zero = out == 0
        out[zero] = np.arange(self.lo, self.hi, dtype=np.int64)[zero]
        return out

    def spf_of(self, n: int) -> int:
        if not self.lo <= n < self.hi:
            raise ValueError(f"{n} outside window [{self.lo}, {self.hi})")
        raw = int(self._spf[n - self.lo])
        return raw if raw else n

    def factorize(self, n: int) -> Factorization:
        if not self.lo <= n < self.hi:
            raise ValueError(f"{n} outside window [{self.lo}, {self.hi})")
        if n == 1:
            return Factorization(1, ())
        parts = []
        m = n
        while m > 1:
            if m < self.lo:
                # cofactor dropped out of the window; finish by trial division
                parts.extend(factorize(m, self._table).parts)
                break
            p = self.spf_of(m)
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            parts.append((p, e))
        parts.sort()
        return Factorization(n, tuple(parts))


def factorize(n: int, src: FactorWindow | PrimeTable) -> Factorization:
    """Factor n using a window that covers it or trial division by a table."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    if isinstance(src, FactorWindow):
        return src.factorize(n)
    if isqrt(n) > src.limit:
        raise ValueError(f"{n} exceeds the table's trial-division reach")
    parts = []
    m = n
    for p in src.primes.tolist():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            parts.append((p, e))
    if m > 1:
        parts.append((m, 1))
    return Factorization(n, tuple(parts))


def omega_in(fac: Factorization, E=None) -> int:
    """Distinct prime divisors of n lying in E (all primes when E is None)."""
    if E is None:
        return len(fac.parts)
    return sum(1 for p, _ in fac.parts if E.contains(p))


def big_omega_in(fac: Factorization, E=None) -> int:
    """Prime divisors with multiplicity restricted to E."""
    if E is None:
        return sum(e for _, e in fac.parts)
    return sum(e for p, e in fac.parts if E.contains(p))


def sigma(fac: Factorization) -> int:
    out = 1
    for p, e in fac.parts:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def aliquot_s(fac: Factorization) -> int:
    """Sum of proper divisors, sigma(n) - n."""
    return sigma(fac) - fac.n


def phi(fac: Factorization) -> int:
    out = 1
    for p, e in fac.parts:
        out *= p ** (e - 1) * (p - 1)
    return out


def mu(fac: Factorization) -> int:
    if any(e > 1 for _, e in fac.parts):
        return 0
    return -1 if len(fac.parts) % 2 else 1


def rad(fac: Factorization) -> int:
    out = 1
    for p, _ in fac.parts:
        out *= p
    return out


def squarefull_part(fac: Factorization) -> int:
    """Product of the prime powers p**e with e >= 2."""
    out = 1
    for p, e in fac.parts:
        if e >= 2:
            out *= p**e
    return out


def carmichael_lambda(fac: Factorization) -> int:
    out = 1
    for p, e in fac.parts:
        out = lcm(out, lambda_of_prime_power(p, e))
    return out


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D|n) for n >= 1."""
    if n < 1:
        raise ValueError("kronecker lower argument must be positive")
    t = 1
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v:
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5) and v % 2 == 1:
            t = -1
    a = D % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def is_prime(n: int, table: PrimeTable | None = None) -> bool:
    """Deterministic primality: table lookup when possible, else strong tests."""
    if n < 2:
        return False
    if table is not None and n <= table.limit:
        return n in table
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n >= 1 << 81:
        raise ValueError("primality test certified only below 2**81")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def divisors(fac: Factorization, limit: int | None = None) -> list[int]:
    """All divisors (optionally only those <= limit), unsorted."""
    divs = [1]
    for p, e in fac.parts:
        cur = list(divs)
        pk = 1
        for _ in range(e):
            pk *= p
            for d in cur:
                nd = d * pk
                if limit is None or nd <= limit:
                    divs.append(nd)
    return divs


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0 and n > 0:
        n //= p
        v += 1
    return v


__all__ = [
    "Factorization",
    "PrimeTable",
    "FactorWindow",
    "table_upto",
    "factorize",
    "omega_in",
    "big_omega_in",
    "sigma",
    "aliquot_s",
    "phi",
    "mu",
    "rad",
    "squarefull_part",
    "carmichael_lambda",
    "lambda_of_prime_power",
    "kronecker",
    "is_prime",
    "divisors",
    "valuation",
    "gcd",
]
