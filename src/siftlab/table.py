"""Multiplication-table counts and their sifted, weighted refinements.

A(N) counts distinct entries of the N by N multiplication table; the shifted
variant keeps only entries adjacent to a prime.  Product bitmaps are built
segment by segment so memory stays flat in N.  The weighted refinement sums
f(n) over survivors of a sieve that factor as a*b with both factors at most
sqrt(x): per window, the same product bitmap ANDed with the survivor bitmap.
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
from .multfunc import MultiplicativeFunction, mertens_sum
from .sift import SiftedSet, nu_sum

DEFAULT_SEGMENT = 1 << 26


def eta0() -> float:
    """The table-density exponent 1 - (1 + log log 2) / log 2."""
    l2 = math.log(2.0)
    return 1.0 - (1.0 + math.log(l2)) / l2


def _mark_products(seg: np.ndarray, lo: int, hi: int, N: int) -> None:
    """Mark a*b in [lo, hi) for 1 <= a <= b <= N into seg (offset lo)."""
    for a in range(1, N + 1):
        b0 = max(a, -(-lo // a))
        b1 = min(N, (hi - 1) // a)
        if b0 > b1:
            continue
        seg[a * b0 - lo : a * b1 - lo + 1 : a] = True


def table_count(
    N: int,
    segment: int = DEFAULT_SEGMENT,
    threads: int = 1,
    budget_cells: int | None = 1 << 40,
) -> int:
    """Number of distinct products a*b with a, b <= N."""
    if N < 1:
        raise ValueError("need N >= 1")
    if budget_cells is not None and N * N > budget_cells:
        raise ResourceBudgetError(
            f"product bitmap needs {N * N} cells, over the budget of {budget_cells}"
        )

    def worker(lo: int, hi: int) -> int:
        seg = np.zeros(hi - lo, dtype=bool)
        _mark_products(seg, lo, hi, N)
        return int(np.count_nonzero(seg))

    ranges = bulk.window_ranges(1, N * N + 1, segment)
    return sum(bulk.run_windows(worker, ranges, threads))


def table_count_shifted(
    N: int,
    s: int,
    segment: int = DEFAULT_SEGMENT,
    threads: int = 1,
    budget_cells: int | None = 1 << 40,
) -> int:
    """Number of distinct products a*b with a, b <= N and a*b + s prime."""
    if N < 1:
        raise ValueError("need N >= 1")
    if s == 0:
        raise ValueError("shift must be nonzero")
    if budget_cells is not None and N * N > budget_cells:
        raise ResourceBudgetError(
            f"product bitmap needs {N * N} cells, over the budget of {budget_cells}"
        )
    root = isqrt(N * N + abs(s)) + 1
    primes = bulk.primes_upto(root)

    def worker(lo: int, hi: int) -> int:
        seg = np.zeros(hi - lo, dtype=bool)
        _mark_products(seg, lo, hi, N)
        flags = bulk.flags_window(lo + s, hi + s, primes)
        return int(np.count_nonzero(seg & flags))

    ranges = bulk.window_ranges(1, N * N + 1, segment)
    return sum(bulk.run_windows(worker, ranges, threads))


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

    Each window ANDs the survivor bitmap with the bitmap of products a*b,
    a <= b <= isqrt(x).  Weights come from the window sieve and are added
    one by one in ascending n, so the value is the same double as summing
    f(n) survivor by survivor.
    """
    x = sset.x
    if x < 3:
        raise ValueError("need x >= 3")
    B = isqrt(x)
    table = table_upto(table, x)

    def worker(lo: int, hi: int) -> float:
        keep = np.zeros(hi - lo, dtype=bool)
        _mark_products(keep, lo, hi, B)
        keep &= sset.bitmap[lo:hi]
        if f.is_one():
            return float(np.count_nonzero(keep))
        fv = bulk.mult_window(lo, hi, table.primes, f.rule, f.at_primes)
        return float(sum(fv[keep].tolist()))

    ranges = bulk.window_ranges(1, x + 1)
    value = float(sum(bulk.run_windows(worker, ranges, threads)))

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
    "table_count_shifted",
    "ford_ratio",
    "SiftedTableReport",
    "sifted_table_sum",
]
