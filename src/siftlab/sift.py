"""Residue sieves and the exact arithmetic sets they approximate.

A sieve condition removes, for finitely many primes p, a set of nonzero
residues mod p.  A survivor set is read window by window, and no set holds
an array of length x, and none reads a prime table.  A congruence set keeps
only its condition and sieves each window it is asked for.  The exact sets
that sieves only bound from above compute their windows too: shifted primes
a*p + b mark the image of the p-range that lands in the window, flagged by
bulk.flags_window with base primes to the root of the set's largest p;
values of a positive definite binary quadratic form mark the runs of each
lattice row that land in the window, and a shifted form ANDs those with the
image of the primes of the shifted window.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from . import bulk
from .arith import is_prime


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
    set sieves each window from cond, an exact set computes it with mark(a, b)."""

    x: int
    cond: SieveCondition | None = None
    mark: Callable[[int, int], np.ndarray] | None = None

    def window(self, a: int, b: int) -> np.ndarray:
        """Membership of each n in [a, b), 0 <= a <= b <= x + 1, as a new bool array
        (0 is no member)."""
        if not 0 <= a <= b <= self.x + 1:
            raise ValueError(f"window [{a}, {b}) outside [0, {self.x + 1})")
        if self.mark is not None:
            seg = self.mark(a, b)
        else:
            seg = np.ones(b - a, dtype=bool)
            for p, residues in self.cond.exclusions:
                for r in residues:
                    seg[(r - a) % p :: p] = False
        seg[:1] &= a > 0  # 0 is no member
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


def nu_sum(cond: SieveCondition | None, x: int) -> float:
    """Sum of nu(p)/p over the (finite) support intersected with [2, x], added one term at a
    time in the order of the exclusions: the builtin sum is compensated from CPython 3.12
    on, so its bytes would depend on the interpreter.  0.0 for no condition (None)."""
    total = 0.0
    for p, rs in () if cond is None else cond.exclusions:
        if p <= x:
            total += len(rs) / p
    return total


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


def _image(a: int, b: int, p_hi: int) -> Callable[[int, int], np.ndarray]:
    """mark(lo, hi) for the a*p + b, p prime <= p_hi (a >= 1): bools over [lo, hi), the
    flags of the p-range [ceil((lo - b) / a), ceil((hi - b) / a)), clipped at 0, laid
    a apart.  For hi <= a*p_hi + b + 1 each p-range ends at or below p_hi, so the base
    primes to isqrt(p_hi) cover it."""
    base = bulk.primes_upto(isqrt(max(p_hi, 0)))

    def mark(lo: int, hi: int) -> np.ndarray:
        seg = np.zeros(hi - lo, dtype=bool)
        p0, p1 = max(-((b - lo) // a), 0), max(-((b - hi) // a), 0)
        seg[a * p0 + b - lo :: a] = bulk.flags_window(p0, p1, base)  # p1 - p0 entries
        return seg

    return mark


def exact_shifted_primes(a: int, b: int, x: int) -> SiftedSet:
    """The exact set {a*p + b : p prime} intersected with [1, x], each window the image
    of its own p-range (_image)."""
    if gcd(a, b) != 1:
        raise ValueError("need gcd(a, b) = 1")
    if a < 1 or b == 0:
        raise ValueError("need a >= 1 and b != 0")
    if x < 1:
        raise ValueError("need x >= 1")
    return SiftedSet(x=x, mark=_image(a, b, (x - b) // a))


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

    def spec_string(self) -> str:
        return f"qf:{self.a},{self.b},{self.c}"


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Exact floor square roots of an int64 array, 0 <= n < 2**62.  Rounding n in
    [k^2, (k + 1)^2) to a double moves it by under k ulp(k), so its root by under
    ulp(k) / 2: the correctly rounded root is k or k + 1, and one step down corrects it."""
    r = np.sqrt(n).astype(np.int64)
    r -= r * r > n
    return r


def _form_window(form: QuadraticForm, lo: int, hi: int) -> np.ndarray:
    """Bools over [lo, hi), True at each value of the form there.

    With u = 2cY + bX and d = 4ac - b^2, 4c f(X, Y) = u^2 + dX^2, so the
    values of row X in [lo, hi) are those at 4c lo - dX^2 <= u^2 <=
    4c (hi - 1) - dX^2: two runs of u, s <= u <= t and -t <= u <= -s, each a
    run of Y.  f(-X, -Y) = f(X, Y), so the rows X >= 0 reach every value.
    The runs go through bulk.runs in batches of at most bulk.CHUNK entries.
    """
    seg = np.zeros(hi - lo, dtype=bool)
    a, b, c, d, m = form.a, form.b, form.c, -form.disc, 2 * form.c
    X = np.arange(isqrt(4 * c * (hi - 1) // d) + 1 if hi > lo else 0, dtype=np.int64)
    dxx = d * X * X
    t = _isqrt(4 * c * (hi - 1) - dxx)
    low = np.maximum(4 * c * lo - dxx, 0)
    s = _isqrt(low)
    s += s * s < low  # the ceiling
    bx = b * X
    start = np.concatenate((-((bx - s) // m), -((bx + t) // m)))
    cnt = np.concatenate(((t - bx) // m, (-s - bx) // m)) - start + 1
    for xs, ys in bulk.runs(start, np.maximum(cnt, 0), np.concatenate((X, X))):
        v = a * xs + b * ys
        v *= xs
        v += c * ys * ys - lo
        seg[v] = True
    return seg


def exact_qf_values(form: QuadraticForm, x: int) -> SiftedSet:
    """All represented values of the form in [1, x], a window at a time (_form_window)."""
    if x < 1:
        raise ValueError("need x >= 1")
    if 4 * form.a * form.c * x >= 1 << 62:
        raise OverflowError(f"{form.spec_string()} up to {x} leaves int64")
    return SiftedSet(x=x, mark=lambda lo, hi: _form_window(form, lo, hi))


def exact_qf_shifted(form: QuadraticForm, k: int, x: int) -> SiftedSet:
    """Represented values n in [1, x] with n + k prime: each window of the values ANDed
    with the flags of the primes of [lo + k, hi + k) (_image, base primes to
    isqrt(x + k))."""
    values = exact_qf_values(form, x).mark
    primes = _image(1, -k, x + k)
    return SiftedSet(x=x, mark=lambda lo, hi: values(lo, hi) & primes(lo, hi))


__all__ = [
    "SieveCondition",
    "condition",
    "NO_SIEVE",
    "SiftedSet",
    "sift",
    "everything",
    "nu_sum",
    "preset_shifted_prime_superset",
    "exact_shifted_primes",
    "QuadraticForm",
    "exact_qf_values",
    "exact_qf_shifted",
]
