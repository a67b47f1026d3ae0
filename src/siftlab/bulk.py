"""Vectorized sieve windows.

Everything that has to touch every integer up to x lives here.  The scheme
is the same for all array builders: split [lo, hi) into fixed-width windows,
run each window with numpy slice arithmetic, and write results back in
ascending window order.  Window width never depends on the thread count, so
output is bit-identical whether windows run serially or on a pool.

Per-window work uses only primes up to sqrt(hi-1).  All five factor
kernels (counts, mult, sigma, lambda, lpf) share one prime-power walk.  A
kernel gives the walk a ufunc, its output array and f(p**e) for each small
prime as a table; the walk applies ufunc(out, f(p**e)) once for every prime
power exactly dividing each n, and finally divides every n by its small
part, which leaves either 1 or a single prime above the root for one
whole-array finish.  Below 2**32 the small parts are multiplied up in
uint32, above it in int64.

The walk splits the small primes at p = width >> 7.  A prime below the
split has at least 128 multiples in the window.  It gets one scalar strided
pass of f(p) over its multiples, skipped when f(p) is the ufunc's identity,
plus a fix-up at the multiples of p**2 when some f(p**e) differs from f(p):
their values are saved before the pass and written back as
ufunc(saved, f(p**e)), so exponents are tracked only there.  The primes
above the split, most of them at 1e9 and beyond, have a few multiples each
and go through one vectorized batch per window, applied with ufunc.at.
flags_window takes the same split, and sieve_flags sieves its array in
DEFAULT_WINDOW segments the same way.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from math import isqrt

import numpy as np

DEFAULT_WINDOW = 1 << 20


def sieve_flags(limit: int) -> np.ndarray:
    """Boolean primality flags for 0..limit, sieved in place in DEFAULT_WINDOW segments."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    flags = np.ones(limit + 1, dtype=bool)
    primes = primes_upto(isqrt(limit))
    for a, b in window_ranges(0, limit + 1):
        _sieve_segment(flags[a:b], a, primes)
    return flags


def primes_upto(limit: int) -> np.ndarray:
    """Sorted array of primes <= limit (int64)."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(sieve_flags(limit))


def flags_window(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Primality flags for [lo, hi); primes must cover sqrt(hi-1)."""
    if lo >= hi:
        return np.zeros(0, dtype=bool)
    flags = np.ones(hi - lo, dtype=bool)
    _sieve_segment(flags, lo, primes)
    return flags


def _sieve_segment(flags: np.ndarray, lo: int, primes: np.ndarray) -> None:
    """Clear the flags of the non-primes in [lo, lo + len(flags)); primes must cover its root."""
    hi = lo + flags.size
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
    """Every multiple in [lo, hi) of each of the ascending primes: (its prime, its position),
    and the number of entries of each prime.

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
    return p, pos, cnt


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


def _walk(lo: int, hi: int, primes: np.ndarray, ufunc, out: np.ndarray, values,
          identity=None) -> np.ndarray:
    """out[i] = ufunc(out[i], f(p**e)) for each p**e exactly dividing lo + i; returns the cofactors.

    Each p <= isqrt(hi-1) is applied in ascending order, one step per
    (n, p).  values(p, e, pe) gives f for a column p of ascending primes:
    pe[i, e] = p[i]**e for e = 0, 1, ..., and 0 once that reaches hi.  Its
    result is broadcast to pe's shape in out's dtype and read only at
    e >= 1 where pe > 0.  A step whose operand equals identity changes
    nothing and may be skipped.

    A prime below the split (_split) gets one scalar strided pass of
    ufunc(out, f(p)) over its multiples.  When f(p**e) differs from f(p) for
    some e >= 2, the values at the multiples of p**2 are saved first, and
    ufunc(saved, f(p**e)) is written back there after the pass, so
    exponents are tracked at those positions only.  All primes above the
    split come in one batch, one entry per (prime, multiple), prime-major,
    applied with ufunc.at; an n divisible by two of them appears twice.

    The small part of every n is multiplied up, so nothing is divided until
    the end, where n // small part is 1 or the one prime factor above the
    root.  Below 2**32 every small part and quotient fits uint32, which
    halves the traffic of that accumulator; the cofactors come back int64.
    """
    n = hi - lo
    acc = np.ones(n, dtype=np.uint32 if hi <= 1 << 32 else np.int64)
    small = _small_primes(primes, hi)
    k = _split(small, n)
    if k:
        table, varies = _table(small[:k], hi, values, out.dtype)
        for p, row, f1, fix in zip(small[:k].tolist(), table, table[:, 1].tolist(),
                                   varies.tolist()):
            sl = slice(-lo % p, n, p)  # a prime below the split has a multiple
            acc[sl] *= p
            q = p * p
            saved = None
            if fix and q < hi and -lo % q < n:
                sq = slice(-lo % q, n, q)
                saved = out[sq].copy() if f1 != identity else out[sq]
                exp = np.ones(saved.size, dtype=np.uint8)
            while q < hi:
                off_q = -lo % q
                if off_q >= n:
                    break
                acc[off_q::q] *= p
                if saved is not None:
                    exp[(off_q - sq.start) // (p * p) :: q // (p * p)] += 1
                q *= p
            if f1 != identity:
                view = out[sl]
                ufunc(view, f1, out=view)
            if saved is not None:
                ufunc(saved, row[exp], out=out[sq])
    if k < small.size:
        _batch(lo, hi, small[k:], acc, ufunc, out, values)
    if acc.dtype == np.int64:
        rem = np.arange(lo, hi, dtype=np.int64)
        rem //= acc
        return rem
    # divide in uint32, writing the quotients straight into the int64 result
    return np.floor_divide(np.arange(lo, hi, dtype=np.uint32), acc, out=np.empty(n, np.int64))


def _batch(lo: int, hi: int, primes: np.ndarray, acc: np.ndarray, ufunc, out: np.ndarray,
           values) -> None:
    """The walk's step for the primes above the split: one ufunc.at entry per (prime, multiple)."""
    p, pos, cnt = _multiples(lo, hi, primes)
    if not p.size:
        return
    exp = np.ones(p.size, dtype=np.uint8)
    pe = p.copy()  # p**exp at each entry
    at = np.flatnonzero((lo + pos) % (p * p) == 0)
    while at.size:
        exp[at] += 1
        pe[at] *= p[at]
        at = at[(lo + pos[at]) // pe[at] % p[at] == 0]
    np.multiply.at(acc, pos, pe.astype(acc.dtype, copy=False))  # p**exp < hi
    del pe  # the entries' values below take its place in memory
    ps = primes[cnt > 0]
    table = _table(ps, hi, values, out.dtype)[0]
    f = np.repeat(table[:, 1], cnt[cnt > 0])  # f(p) at each entry, then f(p**exp)
    at = np.flatnonzero(exp > 1)
    f[at] = table[np.searchsorted(ps, p[at]), exp[at]]
    ufunc.at(out, pos, f)


def _table(ps: np.ndarray, hi: int, values, dtype):
    """t[i, e] = f(ps[i]**e) from values (see _walk), and whether some f(p**e), e >= 2, != f(p)."""
    lim = (hi - 1) // ps
    cols, q = [np.ones_like(ps)], ps
    while q[0]:  # ps[0] is the smallest prime, with the most powers below hi
        cols.append(q)
        q = np.where(q <= lim, q, 0) * ps
    pe = np.stack(cols, axis=1)
    t = np.broadcast_to(np.asarray(values(ps[:, None], np.arange(pe.shape[1]), pe), dtype=dtype),
                        pe.shape)
    varies = ((t[:, 2:] != t[:, 1:2]) & (pe[:, 2:] > 0)).any(axis=1)
    return t, varies


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

    def values(p, e, pe):
        v = e if kind == "bigomega" else 1
        if selector is not None:
            v = v * np.asarray(selector.mask(p[:, 0]), dtype=bool)[:, None]
        return v

    rem = _walk(lo, hi, primes, np.add, counts, values, identity=0)
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
    product of doubles.  The rule is checked at every p**e < hi of each
    small prime with a multiple in the window.
    """
    if lo < 1 or lo >= hi:
        raise ValueError("need 1 <= lo < hi")
    vals = np.ones(hi - lo, dtype=np.float64)

    def values(p, e, pe):
        powers = (pe > 0) & (e > 0)
        t = np.ones(pe.shape)
        t[powers] = np.fromiter(  # row-major, as the mask assigns
            (rule(q, j) for q, c in zip(p[:, 0].tolist(), powers.sum(axis=1).tolist())
             for j in range(1, c + 1)),
            dtype=np.float64, count=int(powers.sum()),
        )
        neg = t < 0
        if neg.any():
            i, j = np.unravel_index(np.argmax(neg), neg.shape)
            raise ValueError(f"multiplicative rule negative at ({p[i, 0]},{j})")
        return t

    rem = _walk(lo, hi, primes, np.multiply, vals, values, identity=1.0)
    big = np.flatnonzero(rem > 1)
    if big.size:
        pv = np.asarray(prime_vec(rem[big]), dtype=np.float64)
        if (pv < 0).any():
            raise ValueError("multiplicative rule negative at a prime")
        if (pv != 1.0).any():  # as the walk skips f(p) = 1, so does the finish
            vals[big] *= pv
    return vals


def sigma_window(lo: int, hi: int) -> np.ndarray:
    """Divisor sums sigma(n) for [lo, hi) as int64; sieves its own primes.

    sigma(p**e) = 1 + p + ... + p**e is a running sum along each prime's
    powers.  A cofactor left by the walk is 1 or a prime q, so
    rem += rem > 1 gives sigma(rem).
    """
    if lo < 1 or lo >= hi:
        raise ValueError("need 1 <= lo < hi")
    if hi > 1 << 55:
        raise OverflowError("sigma window above 2**55 could overflow int64")
    sig = np.ones(hi - lo, dtype=np.int64)
    rem = _walk(lo, hi, primes_upto(isqrt(hi - 1)), np.multiply, sig,
                lambda p, e, pe: np.cumsum(pe, axis=1), identity=1)
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

    def values(p, e, pe):
        t = pe // p * (p - 1)  # p**(e-1) * (p - 1)
        if p[0, 0] == 2:
            t[0, 3:] //= 2  # lambda(2**e) = 2**(e-2) from e = 3 on
        return t

    rem = _walk(lo, hi, primes, np.lcm, lam, values, identity=1)
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
    rem = _walk(lo, hi, primes, np.maximum, lpf, lambda p, e, pe: p)
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
