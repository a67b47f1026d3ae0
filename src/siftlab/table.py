"""Multiplication-table counts and their sifted, weighted refinements.

A(N) counts distinct entries of the N by N multiplication table; the shifted
variant keeps only entries adjacent to a prime.  Product bitmaps are built
in bulk's fixed-width windows, so memory stays flat in N.  The weighted
refinement sums f(n) over survivors of a sieve that factor as a*b with both
factors at most sqrt(x): per window, the same product bitmap ANDed with the
set's window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import bulk
from .arith import PrimeTable, table_upto
from .errors import ResourceBudgetError
from .hist import q_rate
from .multfunc import MultiplicativeFunction, add_windows, mertens_sum
from .sift import SiftedSet, nu_sum

MAX_CELLS = 1 << 40


def eta0() -> float:
    """The table-density exponent 1 - (1 + log log 2) / log 2."""
    l2 = math.log(2.0)
    return 1.0 - (1.0 + math.log(l2)) / l2


def _mark_products(seg: np.ndarray, lo: int, hi: int, N: int) -> None:
    """Mark a*b in [lo, hi) for 1 <= a <= b <= N into seg (offset lo), lo >= 1.

    Rows a below ceil(lo / N) end before lo and rows above isqrt(hi - 1)
    start at a*a >= hi, so only the rows between can mark anything.
    """
    for a in range(-(-lo // N), min(N, isqrt(hi - 1)) + 1):
        b0 = max(a, -(-lo // a))
        b1 = min(N, (hi - 1) // a)
        if b0 > b1:
            continue
        seg[a * b0 - lo : a * b1 - lo + 1 : a] = True


def table_count(N: int, shift: int | None = None, threads: int = 1) -> int:
    """Number of distinct products a*b with a, b <= N, and with a*b + shift prime if given."""
    if N < 1:
        raise ValueError("need N >= 1")
    if shift == 0:
        raise ValueError("shift must be nonzero")
    if N * N > MAX_CELLS:
        raise ResourceBudgetError(
            f"product bitmap needs {N * N} cells, over the cap of {MAX_CELLS}"
        )
    if shift is not None:
        primes = bulk.primes_upto(isqrt(N * N + abs(shift)) + 1)

    def worker(lo: int, hi: int) -> int:
        seg = np.zeros(hi - lo, dtype=bool)
        _mark_products(seg, lo, hi, N)
        if shift is not None:
            seg &= bulk.flags_window(lo + shift, hi + shift, primes)
        return int(np.count_nonzero(seg))

    ranges = bulk.window_ranges(1, N * N + 1)
    return sum(bulk.stream_windows(worker, ranges, threads))


def ford_ratio(N: int, A: int) -> float:
    """A * (log N)**eta0 * (log log N)**1.5 / N**2, defined for N >= 3."""
    if N < 3:
        raise ValueError("need N >= 3 so log log N is positive")
    ln = math.log(N)
    return A * ln ** eta0() * math.log(ln) ** 1.5 / (N * N)


@dataclass
class SiftedTableReport:
    x: int
    value: float              # sum of f over survivors that split as a*b, a,b <= sqrt(x)
    R: float                  # M * log 2 / log log x
    M: float
    regime: str               # "le-half", "mid", or "out-of-range"
    bound_le_half: float | None
    ratio_le_half: float | None
    bound_mid: float | None
    ratio_mid: float | None


def sifted_table_sum(
    sset: SiftedSet,
    f: MultiplicativeFunction,
    table: PrimeTable | None = None,
    threads: int = 1,
) -> SiftedTableReport:
    """Weighted count of survivors lying in the sqrt(x) multiplication table.

    Each window ANDs the set's window with the bitmap of products a*b,
    a <= b <= isqrt(x).  Weights come from the window sieve and are added
    one by one in ascending n to one running sum across the windows, so the
    value is the same double as summing f(n) survivor by survivor.
    """
    x = sset.x
    if x < 3:
        raise ValueError("need x >= 3")
    B = isqrt(x)
    table = table_upto(table, x)

    def worker(lo: int, hi: int):
        """Key 0 for each kept n of the window and, unless f = one, its weight."""
        keep = np.zeros(hi - lo, dtype=bool)
        _mark_products(keep, lo, hi, B)
        keep &= sset.window(lo, hi)
        keys = np.zeros(np.count_nonzero(keep), dtype=np.uint8)
        if f.is_one():
            return keys, None
        return keys, bulk.mult_window(lo, hi, table.primes, f.rule, f.window_primes())[keep]

    ranges = bulk.window_ranges(1, x + 1)
    bins = add_windows(bulk.stream_windows(worker, ranges, threads), weighted=not f.is_one())
    value = float(bins[0]) if bins.size else 0.0

    M = mertens_sum(f, x, table=table)
    llx = math.log(math.log(x))
    R = M * math.log(2.0) / llx
    nu = nu_sum(sset.cond, x) if sset.cond is not None else 0.0
    pref = x / (math.log(x) * math.sqrt(M))
    bound_le_half = (1.0 + 4.0**M * math.sqrt(M) / math.log(x)) * pref * math.exp(
        2.0 * (1.0 - math.log(2.0)) * M - nu
    )
    if 0.5 < R < 1.0:
        lead = 1.0 / (1.0 - R) + 1.0 / math.sqrt(2.0 * R - 1.0)
        bound_mid = lead * pref * math.exp((1.0 - q_rate(1.0 / R)) * M - nu)
    else:
        bound_mid = None
    if R <= 0.5:
        regime = "le-half"
    elif R < 1.0:
        regime = "mid"
    else:
        regime = "out-of-range"
    return SiftedTableReport(
        x=x, value=value, R=R, M=M, regime=regime,
        bound_le_half=bound_le_half,
        ratio_le_half=value / bound_le_half if bound_le_half else None,
        bound_mid=bound_mid,
        ratio_mid=value / bound_mid if bound_mid is not None else None,
    )


__all__ = [
    "eta0",
    "table_count",
    "ford_ratio",
    "SiftedTableReport",
    "sifted_table_sum",
]
