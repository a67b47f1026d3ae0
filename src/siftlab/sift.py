"""Residue sieves and the exact arithmetic sets they approximate.

A sieve condition removes, for finitely many primes p, a set of nonzero
residues mod p.  Survivor sets are kept as boolean bitmaps indexed by n.
The same bitmap container also holds exact sets that sieves only bound from
above: shifted primes a*p + b and values of positive definite binary
quadratic forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from . import bulk
from .arith import Factorization, PrimeTable, is_prime, table_upto


@dataclass(frozen=True)
class SieveCondition:
    """Excluded nonzero residues, prime by prime; empty map sieves nothing."""

    exclusions: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        seen = set()
        for p, residues in self.exclusions:
            if p in seen:
                raise ValueError(f"prime {p} listed twice")
            seen.add(p)
            if not is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
            if len(set(residues)) != len(residues):
                raise ValueError(f"duplicate residues at p={p}")
            for r in residues:
                if not 1 <= r <= p - 1:
                    raise ValueError(f"residue {r} mod {p} outside [1, p-1]")

    @property
    def v(self) -> int:
        """Largest number of excluded residues at any prime."""
        return max((len(rs) for _, rs in self.exclusions), default=0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(p for p, rs in self.exclusions if rs))

    def nu(self, p: int) -> int:
        return len(self.residues_at(p))

    def residues_at(self, p: int) -> tuple[int, ...]:
        for q, rs in self.exclusions:
            if q == p:
                return rs
        return ()

    def admits(self, n: int) -> bool:
        """Scalar survivor test."""
        return all(n % p not in rs for p, rs in self.exclusions)

    def spec_string(self) -> str:
        if not self.exclusions:
            return "none"
        parts = [
            f"{p}:{','.join(str(r) for r in sorted(rs))}"
            for p, rs in sorted(self.exclusions)
        ]
        return "explicit:" + ";".join(parts)


def condition(excl: dict[int, tuple[int, ...]]) -> SieveCondition:
    """Build a condition from a {prime: residues} mapping."""
    return SieveCondition(tuple(sorted((p, tuple(rs)) for p, rs in excl.items())))


NO_SIEVE = SieveCondition(())


@dataclass
class SiftedSet:
    """Survivors of a sieve (or an exact set) over [1, x] as a bitmap."""

    x: int
    bitmap: np.ndarray
    cond: SieveCondition | None = None
    label: str = ""

    def members(self) -> np.ndarray:
        return np.flatnonzero(self.bitmap)

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.bitmap))

    def contains(self, n: int) -> bool:
        return 0 <= n <= self.x and bool(self.bitmap[n])


def sift(x: int, cond: SieveCondition, threads: int = 1) -> SiftedSet:
    """Remove the excluded residue classes from [1, x]."""
    if x < 1:
        raise ValueError("need x >= 1")
    bitmap = np.zeros(x + 1, dtype=bool)

    def worker(a: int, b: int) -> np.ndarray:
        seg = np.ones(b - a, dtype=bool)
        for p, residues in cond.exclusions:
            for r in residues:
                start = a + (r - a) % p
                if start < b:
                    seg[start - a :: p] = False
        return seg

    ranges = bulk.window_ranges(1, x + 1)
    for (a, b), seg in zip(ranges, bulk.run_windows(worker, ranges, threads)):
        bitmap[a:b] = seg
    return SiftedSet(x=x, bitmap=bitmap, cond=cond, label=cond.spec_string())


def everything(x: int) -> SiftedSet:
    """The unsifted set [1, x]."""
    return sift(x, NO_SIEVE)


def nu_sum(cond: SieveCondition, x: int) -> float:
    """Sum of nu(p)/p over the (finite) support intersected with [2, x]."""
    return sum(len(rs) / p for p, rs in cond.exclusions if p <= x)


def h2_weight(cond: SieveCondition, fac: Factorization) -> float:
    """Product over primes q | a of (1 + nu(q)/q)."""
    out = 1.0
    for q, _ in fac.parts:
        out *= 1.0 + cond.nu(q) / q
    return out


def preset_shifted_prime_superset(a: int, b: int, x: int, z: int) -> SieveCondition:
    """Sieve condition satisfied by every a*p + b with p prime, p > z.

    Excludes the residue b mod q for primes q <= z not dividing a*b.  The
    survivors of this condition over (a*z + b, x] contain the shifted primes.
    """
    if gcd(a, b) != 1:
        raise ValueError("need gcd(a, b) = 1")
    if a < 1 or b == 0:
        raise ValueError("need a >= 1 and b != 0")
    if z > isqrt(x):
        raise ValueError("sieve level z must not exceed sqrt(x)")
    excl: dict[int, tuple[int, ...]] = {}
    for q in bulk.primes_upto(z).tolist():
        if (a * b) % q != 0:
            excl[q] = (b % q,)
    return condition(excl)


def exact_shifted_primes(
    a: int, b: int, x: int, table: PrimeTable | None = None
) -> SiftedSet:
    """The exact set {a*p + b : p prime} intersected with [1, x]."""
    if gcd(a, b) != 1:
        raise ValueError("need gcd(a, b) = 1")
    if a < 1 or b == 0:
        raise ValueError("need a >= 1 and b != 0")
    if x < 1:
        raise ValueError("need x >= 1")
    p_hi = (x - b) // a
    bitmap = np.zeros(x + 1, dtype=bool)
    if p_hi >= 2:
        table = table_upto(table, p_hi)
        ps = table.primes[table.primes <= p_hi]
        vals = a * ps + b
        vals = vals[(vals >= 1) & (vals <= x)]
        bitmap[vals] = True
    return SiftedSet(x=x, bitmap=bitmap, cond=None, label=f"sp:{a},{b}")


@dataclass(frozen=True)
class QuadraticForm:
    """Primitive positive definite binary form a*X^2 + b*X*Y + c*Y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise ValueError("form must be primitive")
        if self.a <= 0 or self.c <= 0 or self.disc >= 0:
            raise ValueError("form must be positive definite")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, X: int, Y: int) -> int:
        return self.a * X * X + self.b * X * Y + self.c * Y * Y

    def spec_string(self) -> str:
        return f"qf:{self.a},{self.b},{self.c}"


def exact_qf_values(form: QuadraticForm, x: int) -> SiftedSet:
    """All represented values of the form in [1, x]."""
    if x < 1:
        raise ValueError("need x >= 1")
    d = -form.disc
    bitmap = np.zeros(x + 1, dtype=bool)
    x_max = isqrt(4 * form.c * x // d) + 1
    y_max = isqrt(4 * form.a * x // d) + 1
    ys = np.arange(-y_max, y_max + 1, dtype=np.int64)
    cyy = form.c * ys * ys
    bys = form.b * ys
    for X in range(-x_max, x_max + 1):
        vals = form.a * X * X + bys * X + cyy
        vals = vals[(vals >= 1) & (vals <= x)]
        if vals.size:
            bitmap[vals] = True
    return SiftedSet(x=x, bitmap=bitmap, cond=None, label=form.spec_string())


def exact_qf_shifted(
    form: QuadraticForm, k: int, x: int, table: PrimeTable | None = None
) -> SiftedSet:
    """Represented values n in [1, x] with n + k prime."""
    base = exact_qf_values(form, x)
    hi = x + max(k, 0) + 1
    table = table_upto(table, max(hi, 2))
    ns = base.members()
    keep = np.array([is_prime(int(n) + k, table) for n in ns], dtype=bool)
    bitmap = np.zeros(x + 1, dtype=bool)
    bitmap[ns[keep]] = True
    return SiftedSet(
        x=x, bitmap=bitmap, cond=None, label=f"{form.spec_string()},shift={k}"
    )


__all__ = [
    "SieveCondition",
    "condition",
    "NO_SIEVE",
    "SiftedSet",
    "sift",
    "everything",
    "nu_sum",
    "h2_weight",
    "preset_shifted_prime_superset",
    "exact_shifted_primes",
    "QuadraticForm",
    "exact_qf_values",
    "exact_qf_shifted",
]
