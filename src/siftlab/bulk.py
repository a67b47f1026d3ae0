"""Vectorized sieve windows.

Everything that has to touch every integer up to x lives here.  The scheme
is the same for all array builders: split [lo, hi) into fixed-width windows,
run each window with numpy slice arithmetic, and write results back in
ascending window order.  Window width never depends on the thread count, so
output is bit-identical whether windows run serially or on a pool.

Per-window work uses only primes up to sqrt(hi-1).  All five factor
kernels (counts, mult, sigma, lambda, lpf) share one prime-power walk: it
hands the kernel the exponent of each small prime at each of its multiples,
and finally divides every n by its small part, which leaves either 1 or a
single prime above the root for one whole-array finish.

The walk splits the small primes at p = width >> 7.  A prime below the
split has at least 128 multiples in the window and gets its own strided
slices over the multiples of p, p**2, ...; the primes above it, most of
them at 1e9 and beyond, have a few multiples each and go through one
vectorized batch per window, whose entries the kernels apply with
ufunc.at.  flags_window takes the same split.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from math import isqrt

import numpy as np

DEFAULT_WINDOW = 1 << 20


def sieve_flags(limit: int) -> np.ndarray:
    """Boolean primality flags for 0..limit."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def primes_upto(limit: int) -> np.ndarray:
    """Sorted array of primes <= limit (int64)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(sieve_flags(limit)).astype(np.int64)


def flags_window(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Primality flags for [lo, hi); primes must cover sqrt(hi-1)."""
    if lo >= hi:
        return np.zeros(0, dtype=bool)
    flags = np.ones(hi - lo, dtype=bool)
    if lo < 2:
        flags[: min(2 - lo, hi - lo)] = False
    small = primes[: np.searchsorted(primes, isqrt(hi - 1), side="right")]
    k = _split(small, hi - lo)
    for p in small[:k].tolist():
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start < hi:
            flags[start - lo :: p] = False
    if k < small.size:
        flags[_multiples(lo, hi, small[k:], from_square=True)[1]] = False
    return flags


def window_ranges(lo: int, hi: int, width: int = DEFAULT_WINDOW) -> list[tuple[int, int]]:
    if width < 1:
        raise ValueError("window width must be positive")
    return [(a, min(a + width, hi)) for a in range(lo, hi, width)]


def run_windows(worker, ranges, threads: int = 1) -> list:
    """Apply worker(a, b) to each range; results come back in range order."""
    if threads <= 1 or len(ranges) <= 1:
        return [worker(a, b) for a, b in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda r: worker(r[0], r[1]), ranges))


def _small_primes(primes: np.ndarray, hi: int) -> np.ndarray:
    root = isqrt(hi - 1)
    if root < 2:
        return np.zeros(0, dtype=np.int64)
    if len(primes) == 0:
        raise ValueError(f"prime table must cover sqrt({hi - 1})")
    top = int(primes[-1])
    if top < root:
        # fine as long as (top, root] holds no prime the table is missing
        for m in range(top + 1, root + 1):
            r = isqrt(m)
            if all(m % int(p) for p in primes[primes <= r]):
                raise ValueError(f"prime table must cover sqrt({hi - 1})")
    return primes[: np.searchsorted(primes, root, side="right")]


def _split(small: np.ndarray, width: int) -> int:
    """Index of the first prime above width >> 7, i.e. with fewer than 128 multiples in the window."""
    return int(np.searchsorted(small, width >> 7, side="right"))


def _multiples(lo: int, hi: int, primes: np.ndarray, from_square: bool = False):
    """Every multiple in [lo, hi) of each of the ascending primes: (its prime, its position).

    The entries are prime-major with ascending positions within a prime, so
    each n meets its primes in ascending order.  from_square starts every
    prime at p*p, as the sieve of Eratosthenes does.
    """
    off = -lo % primes
    if from_square:
        np.maximum(off, primes * primes - lo, out=off)
    cnt = (hi - lo - 1 - off) // primes + 1
    np.maximum(cnt, 0, out=cnt)
    p = np.repeat(primes, cnt)
    pos = np.arange(p.size, dtype=np.int64)
    pos *= p
    pos += np.repeat(off - (np.cumsum(cnt) - cnt) * primes, cnt)
    return p, pos


def spf_window(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Smallest prime factor for [lo, hi) as uint32; 0 marks primes and 1.

    Composites below 2**64 always have spf below 2**32, so the narrow
    dtype is safe; the caller resolves the 0 sentinel to n itself.
    """
    if lo < 1 or lo >= hi:
        raise ValueError("need 1 <= lo < hi")
    spf = np.zeros(hi - lo, dtype=np.uint32)
    for p in _small_primes(primes, hi).tolist():
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start >= hi:
            continue
        view = spf[start - lo :: p]
        view[view == 0] = p
    return spf


def _walk(lo: int, hi: int, primes: np.ndarray, visit, exps: bool = True) -> np.ndarray:
    """Visit every small prime of [lo, hi) once; return the cofactors above the root.

    Each p <= isqrt(hi-1) with a multiple in the window is visited in
    ascending order, through visit(p, where, exp): where picks the window
    positions that p divides, and exp holds the exponent of p at each of
    them (uint8, or None when exps is false).  A prime below the split
    (_split) is visited alone, with an int p and a slice.  All primes above
    it come in one last visit, with a prime array and an index array, one
    entry per (prime, multiple), prime-major; an n divisible by two of them
    appears twice, so kernels apply batched entries with ufunc.at (_apply).
    The small part of every n is multiplied up, so nothing is divided until
    the end, where n // small part is 1 or the one prime factor above the
    root.
    """
    n = hi - lo
    acc = np.ones(n, dtype=np.int64)
    small = _small_primes(primes, hi)
    k = _split(small, n)
    for p in small[:k].tolist():
        off = -lo % p
        if off >= n:
            continue
        sl = slice(off, n, p)
        acc[sl] *= p
        exp = np.ones((n - off + p - 1) // p, dtype=np.uint8) if exps else None
        q = p * p
        while q < hi:
            off_q = -lo % q
            if off_q >= n:
                break
            acc[off_q::q] *= p
            if exps:
                exp[(off_q - off) // p :: q // p] += 1
            q *= p
        visit(p, sl, exp)
    if k < small.size:
        p, pos = _multiples(lo, hi, small[k:])
        if p.size:
            exp = np.ones(p.size, dtype=np.uint8)
            pe = p.copy()  # p**exp at each entry
            at = np.flatnonzero((lo + pos) % (p * p) == 0)
            while at.size:
                exp[at] += 1
                pe[at] *= p[at]
                at = at[(lo + pos[at]) // pe[at] % p[at] == 0]
            np.multiply.at(acc, pos, pe)
            visit(p, pos, exp if exps else None)
    rem = np.arange(lo, hi, dtype=np.int64)
    rem //= acc
    return rem


def _apply(ufunc, out: np.ndarray, where, values) -> None:
    """out[where] = ufunc(out[where], values) in place, where is a slice or an index array.

    An index array may repeat a position; ufunc.at applies its entries one
    after another in array order.
    """
    if isinstance(where, slice):
        view = out[where]
        ufunc(view, values, out=view)
    else:
        ufunc.at(out, where, values)


def _distinct(p: np.ndarray):
    """The distinct primes of a prime-major batch, and the row of each entry's prime among them."""
    first = np.empty(p.size, dtype=bool)
    first[:1] = True
    np.not_equal(p[1:], p[:-1], out=first[1:])
    return p[first], np.cumsum(first) - 1


def _power_row(p: int, hi: int, value) -> list:
    """[1, value(p, 1), ...] through the largest e with p**e < hi, for indexing by exp."""
    row, q = [1], p
    while q < hi:
        row.append(value(p, len(row)))
        q *= p
    return row


def _values(p, exp, hi: int, value, dtype):
    """value(p, e) at each visited position, the primes, and the table t[i, e] it came from.

    The table holds every e with p**e < hi, whether or not the window holds
    p**e; past a prime's last power its row reads 1.
    """
    if isinstance(p, int):
        table = np.array([_power_row(p, hi, value)], dtype=dtype)
        return table[0][exp], [p], table
    ps, rows = _distinct(p)
    table = [_power_row(q, hi, value) for q in ps.tolist()]
    width = len(table[0])  # the smallest prime has the most powers below hi
    table = np.array([row + [1] * (width - len(row)) for row in table], dtype=dtype)
    return table[rows, exp], ps, table


def counts_window(lo, hi, primes, kind: str = "omega", selector=None) -> np.ndarray:
    """omega or bigomega of each n in [lo, hi), restricted to selected primes.

    selector is any object with mask(values) -> bool array; None selects
    every prime.
    """
    if lo < 1 or lo >= hi:
        raise ValueError("need 1 <= lo < hi")
    if kind not in ("omega", "bigomega"):
        raise ValueError(f"unknown count kind {kind!r}")
    counts = np.zeros(hi - lo, dtype=np.uint8)
    chosen = None
    if selector is not None:
        small = _small_primes(primes, hi)
        chosen = set(small[np.asarray(selector.mask(small), dtype=bool)].tolist())

    def visit(p, where, exp):
        if chosen is not None:
            if isinstance(where, slice):
                if p not in chosen:
                    return
            else:
                ps, rows = _distinct(p)
                keep = np.asarray(selector.mask(ps), dtype=bool)[rows]
                where = where[keep]
                exp = None if exp is None else exp[keep]
        _apply(np.add, counts, where, np.uint8(1) if exp is None else exp)

    rem = _walk(lo, hi, primes, visit, exps=kind == "bigomega")
    if selector is None:
        counts += rem > 1
    else:
        pos = np.flatnonzero(rem > 1)
        if pos.size:
            keep = np.asarray(selector.mask(rem[pos]), dtype=bool)
            counts[pos[keep]] += 1
    return counts


def mult_window(lo, hi, primes, rule, prime_vec) -> np.ndarray:
    """Values of a multiplicative function on [lo, hi) as float64.

    rule(p, e) gives the value at p**e; prime_vec maps an int64 array of
    primes to values at the first power.  Exponents are extracted exactly,
    so rules with zeros (square-free indicators and the like) are safe.
    Factors are multiplied in ascending p, so every value is one fixed
    product of doubles.
    """
    if lo < 1 or lo >= hi:
        raise ValueError("need 1 <= lo < hi")
    vals = np.ones(hi - lo, dtype=np.float64)

    def visit(p, where, exp):
        f, ps, table = _values(p, exp, hi, rule, np.float64)
        neg = table < 0
        if neg.any():
            i, e = np.unravel_index(np.argmax(neg), neg.shape)
            raise ValueError(f"multiplicative rule negative at ({ps[i]},{e})")
        _apply(np.multiply, vals, where, f)

    rem = _walk(lo, hi, primes, visit)
    big = np.flatnonzero(rem > 1)
    if big.size:
        pv = np.asarray(prime_vec(rem[big]), dtype=np.float64)
        if (pv < 0).any():
            raise ValueError("multiplicative rule negative at a prime")
        vals[big] *= pv
    return vals


def sigma_window(lo: int, hi: int) -> np.ndarray:
    """Divisor sums sigma(n) for [lo, hi) as int64; sieves its own primes.

    A cofactor left by the walk is 1 or a prime q, so rem += rem > 1 gives sigma(rem).
    """
    if lo < 1 or lo >= hi:
        raise ValueError("need 1 <= lo < hi")
    if hi > 1 << 55:
        raise OverflowError("sigma window above 2**55 could overflow int64")
    sig = np.ones(hi - lo, dtype=np.int64)

    def visit(p, where, exp):
        f = _values(p, exp, hi, lambda q, e: (q ** (e + 1) - 1) // (q - 1), np.int64)[0]
        _apply(np.multiply, sig, where, f)

    rem = _walk(lo, hi, primes_upto(isqrt(hi - 1)), visit)
    rem += rem > 1
    sig *= rem
    return sig


def lambda_of_prime_power(p: int, e: int) -> int:
    """Carmichael lambda of p**e."""
    if p == 2:
        return 1 if e == 1 else (2 if e == 2 else 1 << (e - 2))
    return p ** (e - 1) * (p - 1)


def lambda_window(lo, hi, primes) -> np.ndarray:
    """Carmichael lambda for [lo, hi) as int64, exact via running lcm."""
    if lo < 1 or lo >= hi:
        raise ValueError("need 1 <= lo < hi")
    lam = np.ones(hi - lo, dtype=np.int64)

    def visit(p, where, exp):
        _apply(np.lcm, lam, where, _values(p, exp, hi, lambda_of_prime_power, np.int64)[0])

    rem = _walk(lo, hi, primes, visit)
    big = np.flatnonzero(rem > 1)
    if big.size:
        pe = rem[big] - 1
        lv = lam[big]
        lam[big] = lv // np.gcd(lv, pe) * pe
    return lam


def lpf_window(lo, hi, primes) -> np.ndarray:
    """Largest prime factor for [lo, hi) as int64; 1 maps to 1."""
    if lo < 1 or lo >= hi:
        raise ValueError("need 1 <= lo < hi")
    lpf = np.ones(hi - lo, dtype=np.int64)

    def visit(p, where, exp):
        _apply(np.maximum, lpf, where, p)

    rem = _walk(lo, hi, primes, visit, exps=False)
    np.maximum(lpf, rem, out=lpf)
    return lpf


def _assemble(worker, x: int, dtype, threads: int, width: int) -> np.ndarray:
    out = np.zeros(x + 1, dtype=dtype)
    ranges = window_ranges(1, x + 1, width)
    for (a, b), arr in zip(ranges, run_windows(worker, ranges, threads)):
        out[a:b] = arr
    return out


def counts_range(x, primes, kind="omega", selector=None, threads=1, width=DEFAULT_WINDOW):
    """Array c with c[n] = omega(n, E) or bigomega(n, E) for 0 <= n <= x."""
    return _assemble(
        lambda a, b: counts_window(a, b, primes, kind, selector), x, np.uint8, threads, width
    )


def mult_range(x, primes, rule, prime_vec, threads=1, width=DEFAULT_WINDOW):
    """Array v with v[n] = f(n) for a multiplicative f; v[0] = 0."""
    out = _assemble(
        lambda a, b: mult_window(a, b, primes, rule, prime_vec), x, np.float64, threads, width
    )
    out[0] = 0.0
    return out


def sigma_range(x, threads=1, width=DEFAULT_WINDOW):
    """Array s with s[n] = sigma(n); s[0] = 0."""
    return _assemble(lambda a, b: sigma_window(a, b), x, np.int64, threads, width)


def lambda_range(x, primes, threads=1, width=DEFAULT_WINDOW):
    """Array l with l[n] = carmichael lambda(n); l[0] = 0."""
    out = _assemble(lambda a, b: lambda_window(a, b, primes), x, np.int64, threads, width)
    out[0] = 0
    return out


def lpf_range(x, primes, threads=1, width=DEFAULT_WINDOW):
    """Array l with l[n] = largest prime factor of n (1 for n = 1); l[0] = 0."""
    out = _assemble(lambda a, b: lpf_window(a, b, primes), x, np.int64, threads, width)
    out[0] = 0
    return out
