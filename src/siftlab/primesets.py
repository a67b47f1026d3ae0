"""Subsets of the primes used to restrict prime-factor counts.

Each subset answers a scalar membership query and a vectorized mask over an
array of primes; the mask is what the sieve windows consume.  Each concrete
subset renders a spec via spec_string that specs.parse_primeset reads back
to the same set.  Complementing twice returns the original object, so
complement(complement(E)) agrees with E pointwise by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import kronecker


class PrimeSubset:
    """Interface: contains(p) for a prime p, mask(arr) for an array of primes."""

    def contains(self, p: int) -> bool:
        raise NotImplementedError

    def mask(self, arr: np.ndarray) -> np.ndarray:
        return np.fromiter((self.contains(int(p)) for p in arr), dtype=bool, count=len(arr))

    def complement(self) -> "PrimeSubset":
        return Complement(self)

    def spec_string(self) -> str:
        raise NotImplementedError

    def smallest(self, primes: np.ndarray) -> int | None:
        """Smallest member among the given primes, or None."""
        hit = np.asarray(self.mask(primes), dtype=bool)
        idx = np.flatnonzero(hit)
        return int(primes[idx[0]]) if idx.size else None


@dataclass(frozen=True)
class AllPrimes(PrimeSubset):
    def contains(self, p: int) -> bool:
        return True

    def mask(self, arr: np.ndarray) -> np.ndarray:
        return np.ones(len(arr), dtype=bool)

    def spec_string(self) -> str:
        return "all"


@dataclass(frozen=True)
class MinThreshold(PrimeSubset):
    """Primes >= p0."""

    p0: int

    def contains(self, p: int) -> bool:
        return p >= self.p0

    def mask(self, arr: np.ndarray) -> np.ndarray:
        return np.asarray(arr) >= self.p0

    def spec_string(self) -> str:
        return f"pmin:{self.p0}"


@dataclass(frozen=True)
class ResidueClasses(PrimeSubset):
    """Primes congruent to one of the residues mod modulus."""

    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if any(not 0 <= r < self.modulus for r in self.residues):
            raise ValueError("residues must lie in [0, modulus)")

    def contains(self, p: int) -> bool:
        return p % self.modulus in self.residues

    def mask(self, arr: np.ndarray) -> np.ndarray:
        rem = np.asarray(arr) % self.modulus
        out = np.zeros(len(arr), dtype=bool)
        for r in self.residues:
            out |= rem == r
        return out

    def spec_string(self) -> str:
        return f"mod:{self.modulus}:{','.join(str(r) for r in sorted(self.residues))}"


@dataclass(frozen=True)
class KroneckerSign(PrimeSubset):
    """Primes p with Kronecker symbol (disc|p) equal to sign."""

    disc: int
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.disc == 0:
            raise ValueError("discriminant must be nonzero")

    def contains(self, p: int) -> bool:
        return kronecker(self.disc, p) == self.sign

    @cached_property
    def _symbols(self) -> np.ndarray:
        """(disc|period + r) for 0 <= r < period: (disc|n) is periodic in n with period
        4*|disc|.  Built once per set, as a sieve window asks for a mask once per chunk."""
        period = 4 * abs(self.disc)
        return np.array([kronecker(self.disc, period + r) for r in range(period)], dtype=np.int8)

    def mask(self, arr: np.ndarray) -> np.ndarray:
        table = self._symbols
        return table[np.asarray(arr) % table.size] == self.sign

    def spec_string(self) -> str:
        return f"kron:{self.disc}:{'+1' if self.sign == 1 else '-1'}"


@dataclass(frozen=True)
class Explicit(PrimeSubset):
    """A finite, explicitly listed set of primes."""

    members: frozenset[int]

    def contains(self, p: int) -> bool:
        return p in self.members

    @cached_property
    def _sorted(self) -> np.ndarray:
        """The members as one int64 array, built once per set, as a sieve window asks for a
        mask once per chunk."""
        return np.array(sorted(self.members), dtype=np.int64)

    def mask(self, arr: np.ndarray) -> np.ndarray:
        if not self.members:
            return np.zeros(len(arr), dtype=bool)
        t, a = self._sorted, np.asarray(arr)
        return t[np.minimum(np.searchsorted(t, a), t.size - 1)] == a

    def spec_string(self) -> str:
        return "list:" + ",".join(str(p) for p in sorted(self.members))


@dataclass(frozen=True)
class Interval(PrimeSubset):
    """Primes in [lo, hi]."""

    lo: int
    hi: int

    def contains(self, p: int) -> bool:
        return self.lo <= p <= self.hi

    def mask(self, arr: np.ndarray) -> np.ndarray:
        a = np.asarray(arr)
        return (a >= self.lo) & (a <= self.hi)

    def spec_string(self) -> str:
        return f"interval:{self.lo}:{self.hi}"


@dataclass(frozen=True)
class Complement(PrimeSubset):
    inner: PrimeSubset

    def contains(self, p: int) -> bool:
        return not self.inner.contains(p)

    def mask(self, arr: np.ndarray) -> np.ndarray:
        return ~np.asarray(self.inner.mask(arr), dtype=bool)

    def complement(self) -> PrimeSubset:
        return self.inner

    def spec_string(self) -> str:
        return f"not:{self.inner.spec_string()}"


ALL_PRIMES = AllPrimes()


def explicit_primes(members) -> Explicit:
    return Explicit(frozenset(int(p) for p in members))


__all__ = [
    "PrimeSubset",
    "AllPrimes",
    "MinThreshold",
    "ResidueClasses",
    "KroneckerSign",
    "Explicit",
    "Interval",
    "Complement",
    "ALL_PRIMES",
    "explicit_primes",
]
