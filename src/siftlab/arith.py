"""Exact integer arithmetic: prime tables, factor windows, primality, Kronecker symbols.

Per-integer quantities (divisor sums, totients, Carmichael lambda, factor
counts) come from the window kernels in bulk; a Factorization serves the
few callers that factor one value at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import bulk

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
    """Primes up to a fixed limit, and nothing else: pi(x) is a binary search."""

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("prime table limit must be at least 2")
        self.limit = limit
        self.primes = bulk.primes_upto(limit)  # int64, sieved segment by segment

    def __len__(self) -> int:
        return len(self.primes)

    def pi(self, x: int | None = None) -> int:
        """Number of primes <= x (defaults to the table limit)."""
        if x is None or x >= self.limit:
            return len(self.primes)
        return int(np.searchsorted(self.primes, x, side="right"))


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
        self._spf = bulk.fill_windows(np.empty(hi - lo, dtype=np.uint32), lo,
                                      lambda a, b, dest: bulk.spf_window(a, b, table.primes,
                                                                         out=dest))

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


def factorize(n: int, table: PrimeTable) -> Factorization:
    """Factor n by trial division over a table reaching isqrt(n)."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    if isqrt(n) > table.limit:
        raise ValueError(f"{n} exceeds the table's trial-division reach")
    parts = []
    m = n
    for p in table.primes[: np.searchsorted(table.primes, isqrt(n), side="right")].tolist():
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


def is_prime(n: int) -> bool:
    """Deterministic primality: trial division by the bases, then strong tests."""
    if n < 2:
        return False
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


__all__ = [
    "Factorization",
    "PrimeTable",
    "FactorWindow",
    "factorize",
    "kronecker",
    "is_prime",
]
