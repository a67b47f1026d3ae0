"""Residue sieves and the exact arithmetic sets they approximate.

A sieve condition removes, for finitely many primes p, a set of nonzero
residues mod p.  A survivor set is read window by window: a congruence set
keeps only its condition and sieves each window it is asked for, so it
holds no array of length x.  The same container holds the exact sets that
sieves only bound from above, shifted primes a*p + b and values of
positive definite binary quadratic forms, as boolean bitmaps indexed by n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from . import bulk
from .arith import PrimeTable, is_prime, table_upto


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
    """Survivors of a sieve, or an exact set, in [1, x], read by window(a, b): a congruence
    set sieves each window from cond (bitmap None), an exact set slices its bitmap."""

    x: int
    bitmap: np.ndarray | None = None
    cond: SieveCondition | None = None

    def window(self, a: int, b: int) -> np.ndarray:
        """Membership of each n in [a, b), 0 <= a <= b <= x + 1, as bools (0 is no member);
        an exact set's window is a view of its bitmap, not to be written."""
        if not 0 <= a <= b <= self.x + 1:
            raise ValueError(f"window [{a}, {b}) outside [0, {self.x + 1})")
        if self.bitmap is not None:
            return self.bitmap[a:b]
        seg = np.ones(b - a, dtype=bool)
        seg[:1] = a > 0  # 0 is no member
        for p, residues in self.cond.exclusions:
            for r in residues:
                seg[(r - a) % p :: p] = False
        return seg

    def members(self) -> np.ndarray:
        return np.flatnonzero(self.window(0, self.x + 1))

    @property
    def count(self) -> int:
        return sum(int(np.count_nonzero(self.window(a, b)))
                   for a, b in bulk.window_ranges(1, self.x + 1))

    def contains(self, n: int) -> bool:
        return 0 <= n <= self.x and bool(self.window(n, n + 1)[0])


def sift(x: int, cond: SieveCondition) -> SiftedSet:
    """Remove the excluded residue classes from [1, x], window by window as the set is read."""
    if x < 1:
        raise ValueError("need x >= 1")
    return SiftedSet(x=x, cond=cond)


def everything(x: int) -> SiftedSet:
    """The unsifted set [1, x]."""
    return sift(x, NO_SIEVE)


def nu_sum(cond: SieveCondition, x: int) -> float:
    """Sum of nu(p)/p over the (finite) support intersected with [2, x]."""
    return sum(len(rs) / p for p, rs in cond.exclusions if p <= x)


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


def shifted_prime_limit(a: int, b: int, x: int) -> int:
    """The largest p with a*p + b <= x, the primes exact_shifted_primes reads."""
    if gcd(a, b) != 1:
        raise ValueError("need gcd(a, b) = 1")
    if a < 1 or b == 0:
        raise ValueError("need a >= 1 and b != 0")
    return (x - b) // a


def exact_shifted_primes(
    a: int, b: int, x: int, table: PrimeTable | None = None
) -> SiftedSet:
    """The exact set {a*p + b : p prime} intersected with [1, x]."""
    p_hi = shifted_prime_limit(a, b, x)
    if x < 1:
        raise ValueError("need x >= 1")
    bitmap = np.zeros(x + 1, dtype=bool)
    if p_hi >= 2:
        table = table_upto(table, p_hi)
        ps = table.primes[table.primes <= p_hi]
        vals = a * ps + b
        vals = vals[(vals >= 1) & (vals <= x)]
        bitmap[vals] = True
    return SiftedSet(x=x, bitmap=bitmap, cond=None)


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
    return SiftedSet(x=x, bitmap=bitmap, cond=None)


def qf_shifted_prime_limit(k: int, x: int) -> int:
    """The primes exact_qf_shifted reads: past every n + k with n <= x."""
    return x + max(k, 0) + 1


def exact_qf_shifted(
    form: QuadraticForm, k: int, x: int, table: PrimeTable | None = None
) -> SiftedSet:
    """Represented values n in [1, x] with n + k prime: the values' bitmap, cleared in
    place window by window where n + k is not prime."""
    table = table_upto(table, max(qf_shifted_prime_limit(k, x), 2))
    bitmap = exact_qf_values(form, x).bitmap
    bitmap[: max(-k, 0)] = False  # a negative n + k is no prime
    for a, b in bulk.window_ranges(0, x + 1):
        seg = bitmap[a:b]
        ns = np.flatnonzero(seg)
        vals = ns + (a + k)
        pos = np.searchsorted(table.primes, vals).clip(max=len(table) - 1)
        seg[ns[table.primes[pos] != vals]] = False
    return SiftedSet(x=x, bitmap=bitmap, cond=None)


__all__ = [
    "SieveCondition",
    "condition",
    "NO_SIEVE",
    "SiftedSet",
    "sift",
    "everything",
    "nu_sum",
    "preset_shifted_prime_superset",
    "shifted_prime_limit",
    "exact_shifted_primes",
    "QuadraticForm",
    "exact_qf_values",
    "qf_shifted_prime_limit",
    "exact_qf_shifted",
]
