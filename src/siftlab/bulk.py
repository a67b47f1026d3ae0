"""Vectorized sieve windows.

Everything that has to touch every integer up to x lives here.  The scheme
is the same for every pass over [lo, hi): split it into fixed-width windows
and consume the windows' results in ascending order from one stream
(stream_windows), which keeps at most 2 * threads windows in flight.  A
reduction reads each result as it comes; an array builder hands each
worker its own slice of the output (fill_windows), which the window's
kernel fills in place: every factor kernel takes an optional out= of its
result's dtype and length, overwrites all of it and returns it.  No window
result is built and copied.  The package has one window width,
DEFAULT_WINDOW, which window_ranges reads when a pass starts, so setting it
sets the width of every pass.  The width never depends on the thread count,
so output is bit-identical whether windows run serially or on a pool, and
no output byte depends on the width either.

Per-window work uses only primes up to sqrt(hi-1).  All six factor kernels
(spf, counts, mult, sigma, lambda, lpf) are declarations on one prime-power
walk (_walk).  A kernel gives the walk a ufunc, its output array, f(p**e)
for each small prime as a table, and optionally a finish; the walk applies
ufunc(out, f(p**e)) once for every prime power exactly dividing each n.
spf is np.minimum of p from a start value that is not prime, lpf
np.maximum, lambda np.lcm, mult and sigma np.multiply, counts np.add.  What
is left of n above its small part is 1 or a single prime above the root.
spf needs nothing of it.  Counts without a selector only need to know
which, and read it off a sum of rounded logarithms packed beside the count
(_log_counts), so their walk keeps no small parts.  The kernels that need
that prime's value give a finish: counts with a selector, mult unless
its weight is given as the number 1 at the primes, sigma, lambda and lpf.  Their walk
multiplies up each n's small part, and at the end divides n by it and
calls the finish, CHUNK entries at a time; below 2**32 the small parts and
cofactors are uint32, above it int64.  That accumulator is the one array of
window length a kernel keeps beside its output.  Each finish keeps the
form that is fastest for it: sigma, lpf and counts with a selector run
dense over the chunk (r += r > 1 and s *= r; np.maximum; c += (r > 1) &
mask(r)), mult with a number c at the primes multiplies where r > 1, and
mult with a callable and lambda gather the primes left above the root.
Only the fix-up of the next paragraph, a copy of the values at the
multiples of p**2, still grows with the window: past CHUNK entries for
p = 2 and 3 in a 2**20 window.

The walk splits the small primes at p = width >> 7.  A prime below the
split has at least 128 multiples in the window.  It gets one scalar strided
pass of f(p) over its multiples, skipped when f(p) is the ufunc's identity.
An integer np.add (the counts) then adds f(p**e) - f(p**(e-1)) at the
multiples of each p**e, which is exact.  For the other ufuncs, when some
f(p**e) differs from f(p), the values at the multiples of p**2 are saved
before the pass and written back as ufunc(saved, f(p**e)) at the multiples
of each p**e in ascending e, so no exponent is stored, and only for e = 2
when every f(p**e), e >= 3, equals f(p**2).  The primes above the split,
most of them at 1e9 and beyond, have a few multiples each and go through
vectorized batches applied with ufunc.at (for an integer np.add, again one
power at a time), one batch for each ascending group of primes with about
CHUNK multiples in the window (_groups), so each n still meets its primes
in ascending order.  flags_window takes the same split and groups, and
primes_upto sieves in DEFAULT_WINDOW segments the same way.

OmegaTable is the one table of omega(m) that several windows share: 4 bits
per odd m over [0, limit], a quarter byte per m, since the factors of 2 are
counted at lookup.  It is np.empty and filled by counts_window in aligned
blocks, DEFAULT_WINDOW rounded up to a multiple of 4 when the table is
made, each under its own lock, only as far as its readers reach, so a table
sized to a bound far above what is read costs no memory past what is read.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from math import ceil, isqrt, log, log2

import numpy as np

DEFAULT_WINDOW = 1 << 20
CHUNK = 1 << 16  # entries per chunk of a window's finish and per group of its batch primes


def prime_count_bound(y: int) -> int:
    """pi(y) < 1.25506 y / log y for y > 1 (Rosser & Schoenfeld 1962), rounded down."""
    return int(1.25506 * y / log(y)) if y > 1 else 0


def primes_upto(limit: int) -> np.ndarray:
    """Sorted array of primes <= limit (int64), a view of one np.empty buffer of
    prime_count_bound(limit) entries that each DEFAULT_WINDOW segment's sieve
    fills in turn; no flags of length limit are made."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    base = primes_upto(isqrt(limit))
    out = np.empty(prime_count_bound(limit), dtype=np.int64)
    n = 0
    for a, b in window_ranges(0, limit + 1):
        seg = np.ones(b - a, dtype=bool)
        _sieve_segment(seg, a, base)
        found = np.flatnonzero(seg)
        np.add(found, a, out=out[n : n + found.size])
        n += found.size
    return out[:n]


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
    for group in _groups(small[k:], hi - lo):
        flags[_multiples(lo, hi, group, from_square=True)[0]] = False


def window_ranges(lo: int, hi: int, width: int | None = None) -> list[tuple[int, int]]:
    """[lo, hi) cut into windows of width integers, DEFAULT_WINDOW (read per call) by default."""
    width = DEFAULT_WINDOW if width is None else width
    if width < 1:
        raise ValueError("window width must be positive")
    return [(a, min(a + width, hi)) for a in range(lo, hi, width)]


def stream_windows(worker, ranges, threads: int = 1):
    """Yield worker(a, b) for each range, in range order.

    A pool of `threads` workers runs ahead of the consumer by at most
    2 * threads submitted windows, so however many ranges there are, at
    most that many results are held at once.
    """
    if threads <= 1 or len(ranges) <= 1:
        for a, b in ranges:
            yield worker(a, b)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for a, b in ranges:
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(worker, a, b))
        while pending:
            yield pending.popleft().result()


def fill_windows(out: np.ndarray, lo: int, worker, threads: int = 1) -> np.ndarray:
    """worker(a, b, out[a - lo : b - lo]) fills each window [a, b) of [lo, lo + len(out)).

    The worker writes its destination slice in place; nothing is copied.
    """
    for _ in stream_windows(lambda a, b: worker(a, b, out[a - lo : b - lo]),
                            window_ranges(lo, lo + len(out)), threads):
        pass
    return out


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


def _groups(primes: np.ndarray, n: int):
    """The ascending primes in consecutive runs of at most CHUNK multiples in a window of n
    integers between them, or one prime per run where a prime has more."""
    ends = np.cumsum(n // primes + 1)  # bounds the multiples of each prime from above
    i = 0
    while i < primes.size:
        j = max(i + 1, int(np.searchsorted(ends, (ends[i - 1] if i else 0) + CHUNK, side="right")))
        yield primes[i:j]
        i = j


def _multiples(lo: int, hi: int, primes: np.ndarray, from_square: bool = False):
    """The position in [lo, hi) of every multiple of each of the ascending primes, and the
    number of multiples of each prime.

    The positions are prime-major and ascend within a prime, so each n
    meets its primes in ascending order.  They are built in one array: a
    step of p between the multiples of p, a jump to the first multiple of
    the next prime, and a running sum.  from_square starts every prime at
    p*p, as the sieve of Eratosthenes does.
    """
    off = -lo % primes
    if from_square:
        np.maximum(off, primes * primes - lo, out=off)
    cnt = (hi - lo - 1 - off) // primes + 1
    np.maximum(cnt, 0, out=cnt)
    live = cnt > 0
    ps, off, c = primes[live], off[live], cnt[live]
    pos = np.repeat(ps, c)
    if pos.size:
        last = off + (c - 1) * ps
        pos[np.cumsum(c) - c] = off - np.concatenate(([0], last[:-1]))
        np.cumsum(pos, out=pos)
    return pos, cnt


def runs(start: np.ndarray, cnt: np.ndarray, tag: np.ndarray):
    """The runs start[k], start[k] + 1, ..., start[k] + cnt[k] - 1, laid end to end,
    in batches of at most CHUNK entries: (tag[k] at each entry, the entry's integer).

    As in _multiples, a batch is np.repeat plus offsets: entry t of the
    whole list, in run k, holds t + start[k] - (the entries before run k).
    A run may be cut between two batches.
    """
    ends = np.cumsum(cnt)
    total = int(ends[-1]) if ends.size else 0
    shift = start - ends + cnt
    for a in range(0, total, CHUNK):
        b = min(a + CHUNK, total)
        k0, k1 = np.searchsorted(ends, (a, b - 1), side="right").tolist()
        k = slice(k0, k1 + 1)
        c = np.minimum(ends[k], b) - np.maximum(ends[k] - cnt[k], a)
        i = np.repeat(shift[k], c)
        i += np.arange(a, b)
        yield np.repeat(tag[k], c), i


def spf_window(lo: int, hi: int, primes: np.ndarray, out=None) -> np.ndarray:
    """Smallest prime factor for [lo, hi) as uint32; 0 marks primes and 1.

    The walk takes np.minimum of p over each n's small primes from the start
    value 2**32 - 1, which is not prime; that value and each small prime left
    equal to itself become 0.  Composites below 2**64 always have spf below
    2**32, so the narrow dtype is safe; the caller resolves the 0 sentinel
    to n itself.
    """
    top = (1 << 32) - 1
    spf = _filled(lo, hi, out, np.uint32, top)
    _walk(lo, hi, primes, np.minimum, spf, lambda p, e, pe: p)
    spf[spf == top] = 0
    small = _small_primes(primes, hi)
    spf[small[np.searchsorted(small, lo):] - lo] = 0
    return spf


def _walk(lo: int, hi: int, primes: np.ndarray, ufunc, out: np.ndarray, values,
          identity=None, finish=None) -> None:
    """out[i] = ufunc(out[i], f(p**e)) for each p**e exactly dividing lo + i, then finish.

    Each p <= isqrt(hi-1) is applied in ascending order, one step per
    (n, p).  values(p, e, pe) gives f for a column p of ascending primes:
    pe[i, e] = p[i]**e for e = 0, 1, ..., and 0 once that reaches hi.  Its
    result is broadcast to pe's shape in out's dtype and read only at
    e >= 1 where pe > 0.  A step whose operand equals identity changes
    nothing and may be skipped.

    A prime below the split (_split) gets one scalar strided pass of
    ufunc(out, f(p)) over its multiples.  When ufunc is np.add and out is
    an integer array, each f(p**e) - f(p**(e-1)), e >= 2, is added at the
    multiples of p**e, which is exact even where the difference wraps in
    out's dtype.  Otherwise, when f(p**e) differs from f(p) for some e >= 2,
    the values at the multiples of p**2 are saved first, and after the pass
    ufunc(saved, f(p**e)) is written at the multiples of p**e for e = 2, 3,
    ... in turn, so the last write at n is for the exponent of p in n and no
    exponent is stored.  When no f(p**e), e >= 3, differs from f(p**2)
    (_table's deep) only e = 2 is written, and then with f(p) the identity
    the pass is skipped, so the saved values are a view, not a copy.  The
    primes above the split come in ascending groups of at most CHUNK
    multiples (_groups), one batch per group, one entry per (prime,
    multiple), prime-major, applied with ufunc.at; an n divisible by two of
    them appears twice.  An integer np.add batch takes one power at a time
    too (_step_batch).

    Without finish that is all: no small part is kept, and a prime whose
    fix-up is not deep costs no power loop.  With finish(out_chunk, r) the
    small part of every n is multiplied up, so nothing is divided until the
    end, where n // small part, taken CHUNK entries at a time, is 1 or the
    one prime factor above the root; right after each chunk's division,
    finish gets that chunk of out and those cofactors r, which it may
    overwrite.  Below 2**32 every small part and cofactor fits uint32, which
    halves the traffic of that accumulator, else they are int64.
    """
    n = hi - lo
    keep = finish is not None
    acc = np.ones(n, dtype=np.uint32 if hi <= 1 << 32 else np.int64) if keep else None
    small = _small_primes(primes, hi)
    k = _split(small, n)
    steps = ufunc is np.add and out.dtype.kind in "ui"
    if k:
        table, varies, deep = _table(small[:k], hi, values, out.dtype)
        if steps:  # row[e] = f(p**e) - f(p**(e-1)) from e = 2 on, modulo the dtype's range
            table = np.concatenate([table[:, :2], table[:, 2:] - table[:, 1:-1]], axis=1)
        for p, row, f1, fix, dp in zip(small[:k].tolist(), table, table[:, 1].tolist(),
                                       varies.tolist(), deep.tolist()):
            sl = slice(-lo % p, n, p)  # a prime below the split has a multiple
            q = p * p
            saved = None
            if fix and not steps and q < hi and -lo % q < n:
                sq = slice(-lo % q, n, q)
                saved = out[sq].copy() if f1 != identity or dp else out[sq]
            if f1 != identity:
                view = out[sl]
                ufunc(view, f1, out=view)
            if saved is not None:
                ufunc(saved, row[2], out=out[sq])
            dp = dp and saved is not None
            if keep:
                acc[sl] *= p
            if keep or dp or (steps and fix):
                for e, se in _powers(p, lo, hi):
                    if keep:
                        acc[se] *= p
                    if steps and row[e]:
                        out[se] += row[e]
                    if dp and e > 2:  # the last write at n is for p's exponent in n
                        ufunc(saved[(se.start - sq.start) // q :: se.step // q], row[e],
                              out=out[se])
    for group in _groups(small[k:], n):
        if steps:
            _step_batch(lo, hi, group, acc, out, values)
        else:
            _batch(lo, hi, group, acc, ufunc, out, values)
    if keep:
        for a, b in window_ranges(0, n, CHUNK):
            r = acc[a:b]
            np.floor_divide(np.arange(lo + a, lo + b, dtype=acc.dtype), r, out=r)
            finish(out[a:b], r)


def _powers(p: int, lo: int, hi: int):
    """(e, the positions of the multiples of p**e in [lo, hi)) for e = 2, 3, ... while there are any."""
    q, e = p * p, 2
    while q < hi and -lo % q < hi - lo:
        yield e, slice(-lo % q, hi - lo, q)
        q *= p
        e += 1


def _batch(lo: int, hi: int, primes: np.ndarray, acc, ufunc, out: np.ndarray, values) -> None:
    """The walk's step for the primes above the split: one ufunc.at entry per (prime, multiple)."""
    pos, cnt = _multiples(lo, hi, primes)
    if not pos.size:
        return
    p = np.repeat(primes, cnt)
    at = lo + pos  # p**2 divides lo + pos where (lo + pos) // p % p == 0, tested in place
    at //= p
    at %= p
    at = np.flatnonzero(at == 0)
    exp = np.ones(p.size, dtype=np.uint8)
    pe = p.copy()  # p**exp at each entry
    while at.size:
        exp[at] += 1
        pe[at] *= p[at]
        at = at[(lo + pos[at]) // pe[at] % p[at] == 0]
    if acc is not None:
        np.multiply.at(acc, pos, pe.astype(acc.dtype, copy=False))  # p**exp < hi
    del pe  # the entries' values below take its place in memory
    ps = primes[cnt > 0]
    table = _table(ps, hi, values, out.dtype)[0]
    f = np.repeat(table[:, 1], cnt[cnt > 0])  # f(p) at each entry, then f(p**exp)
    at = np.flatnonzero(exp > 1)
    f[at] = table[np.searchsorted(ps, p[at]), exp[at]]
    ufunc.at(out, pos, f)


def _step_batch(lo: int, hi: int, primes: np.ndarray, acc, out: np.ndarray, values) -> None:
    """_batch for an integer np.add: f(p) at each multiple of p, then f(p**e) - f(p**(e-1))
    at each multiple of p**e, so no exponent is found per entry."""
    pos, cnt = _multiples(lo, hi, primes)
    if not pos.size:
        return
    live = cnt > 0
    ps, cnt = primes[live], cnt[live]
    t = _table(ps, hi, values, out.dtype)[0]
    lim = (hi - 1) // ps
    q, e = ps, 1
    while True:
        if acc is not None:
            np.multiply.at(acc, pos, np.repeat(ps.astype(acc.dtype), cnt))
        inc = t[:, 1] if e == 1 else t[:, e] - t[:, e - 1]
        if inc.any():
            np.add.at(out, pos, np.repeat(inc, cnt))
        live = q <= lim  # p**(e+1) < hi
        if not live.any():
            return
        ps, q, lim, t = ps[live], q[live] * ps[live], lim[live], t[live]
        e += 1
        pos, cnt = _multiples(lo, hi, q)


def _table(ps: np.ndarray, hi: int, values, dtype):
    """t[i, e] = f(ps[i]**e) from values (see _walk); whether some f(p**e), e >= 2, != f(p);
    and (deep) whether some f(p**e), e >= 3, != f(p**2).  Only p**e < hi counts."""
    lim = (hi - 1) // ps
    cols, q = [np.ones_like(ps)], ps
    while q[0]:  # ps[0] is the smallest prime, with the most powers below hi
        cols.append(q)
        q = np.where(q <= lim, q, 0) * ps
    pe = np.stack(cols, axis=1)
    t = np.broadcast_to(np.asarray(values(ps[:, None], np.arange(pe.shape[1]), pe), dtype=dtype),
                        pe.shape)
    live = pe[:, 2:] > 0
    varies = ((t[:, 2:] != t[:, 1:2]) & live).any(axis=1)
    deep = ((t[:, 3:] != t[:, 2:3]) & live[:, 1:]).any(axis=1)
    return t, varies, deep


def _filled(lo: int, hi: int, out, dtype, fill) -> np.ndarray:
    """out, or a new array of length hi - lo when it is None, set to fill throughout
    unless fill is None."""
    if lo < 1 or lo >= hi:
        raise ValueError("need 1 <= lo < hi")
    if out is None:
        out = np.empty(hi - lo, dtype=dtype)
    elif out.shape != (hi - lo,) or out.dtype != dtype:
        raise ValueError(f"out must be a {np.dtype(dtype)} array of length {hi - lo}")
    if fill is not None:
        out.fill(fill)
    return out


_LOG_SCALE = 64


def counts_window(lo, hi, primes, kind: str = "omega", selector=None, out=None) -> np.ndarray:
    """omega or bigomega of each n in [lo, hi), restricted to selected primes.

    selector is any object with mask(values) -> bool array; None selects
    every prime.

    With a selector the walk keeps the cofactors, whose prime it tests.
    Without one it only has to learn whether n keeps a prime above
    r = isqrt(hi - 1), and a sum of rounded logarithms tells it exactly
    (_log_counts), so no small part is multiplied up or divided out.

    The scale is 64: with L(p) = rint(64 log2 p), the walk adds f(p**e) = e L(p) << b, plus
    1 for omega or e for bigomega, into a word per n: b = 4 bits of count
    in a uint16 word for omega, b = 8 in a uint32 word for bigomega.  The
    low b bits count the prime factors up to r = isqrt(hi - 1), and the
    rest, W, is 64 log2 s for the small part s of n, to within 1/2 unit
    per prime factor counted with multiplicity, as |L(p) - 64 log2 p| <= 1/2.

    n = s * q with one prime q > r, or n = s.  Let n lie in the block
    [2**j, 2**(j+1)) of the window, and u = log2(r + 1).  Then n = s gives
    64 log2 s >= 64 j, and n = s * q gives 64 log2 s < 64 (j + 1 - u), as
    q >= r + 1.  The threshold T = 64 j - 32 (u - 1) sits halfway, 32 (u - 1)
    from either side, and the error stays within that.  As
    r + 1 > sqrt(n) >= 2**(j/2), j < 2u.  With a prime q, s has at most
    log2 s < j + 1 - u < u + 1 prime factors, an error below (u + 1)/2;
    without one, at most j < 2u, an error below u.  Both are at most
    32 (u - 1) when u >= log2 3, that is r >= 2.  When r < 2 no prime is
    small, W = 0, and T = 64 j leaves only n = 1 at or above it.  So n keeps
    a prime above r exactly when W < T, taken as W < max(0, ceil(T)), on
    each dyadic block of the window.  The word never wraps: for hi < 2**63,
    W <= 64 * 63 + 31.5, so an omega word stays below
    16 * (64 * 63 + 31.5) + 15 < 2**16, and a bigomega word, with up to 63
    factors in its 8 count bits, far below 2**32.
    """
    if kind not in ("omega", "bigomega"):
        raise ValueError(f"unknown count kind {kind!r}")
    if selector is None:
        return _log_counts(lo, hi, primes, kind, _filled(lo, hi, out, np.uint8, None))
    counts = _filled(lo, hi, out, np.uint8, 0)

    def values(p, e, pe):
        v = e if kind == "bigomega" else 1
        return v * np.asarray(selector.mask(p[:, 0]), dtype=bool)[:, None]

    def finish(c, r):
        c += (r > 1) & np.asarray(selector.mask(r), dtype=bool)

    _walk(lo, hi, primes, np.add, counts, values, identity=0, finish=finish)
    return counts


def _log_counts(lo: int, hi: int, primes: np.ndarray, kind: str, counts: np.ndarray) -> np.ndarray:
    """counts_window without a selector: one packed word per n, and no cofactors."""
    bits, dtype = (4, np.uint16) if kind == "omega" else (8, np.uint32)

    def values(p, e, pe):
        L = np.rint(_LOG_SCALE * np.log2(p)).astype(np.int64)
        return np.where(pe > 0, (e * L << bits) + (1 if kind == "omega" else e), 0)

    word = np.zeros(hi - lo, dtype=dtype)
    _walk(lo, hi, primes, np.add, word, values, identity=0)
    np.bitwise_and(word, (1 << bits) - 1, out=counts, casting="unsafe")
    u = log2(isqrt(hi - 1) + 1)
    for j in range(int(lo).bit_length() - 1, (int(hi) - 1).bit_length()):
        a, b = max(lo, 1 << j) - lo, min(hi, 2 << j) - lo
        t = max(0, ceil(_LOG_SCALE * j - _LOG_SCALE / 2 * (u - 1)))
        counts[a:b] += word[a:b] < t << bits
    return counts


def mult_window(lo, hi, primes, rule, prime_vec, out=None) -> np.ndarray:
    """Values of a multiplicative function on [lo, hi) as float64.

    rule(p, e) gives the value at p**e; prime_vec maps an int64 array of
    primes to values at the first power, or is the number f(p) when that is
    the same at every prime.  Exponents are extracted exactly, so rules with
    zeros (square-free indicators and the like) are safe.  Factors are
    multiplied in ascending p, so every value is one fixed product of
    doubles.  The rule is checked at every p**e < hi of each small prime
    with a multiple in the window, and so is a number prime_vec at e = 1.
    A number c is applied as vals *= c wherever a cofactor prime is left,
    and c = 1 needs no cofactors at all (see _walk).
    """
    const = not callable(prime_vec)
    if const and prime_vec < 0:
        raise ValueError("multiplicative rule negative at a prime")
    vals = _filled(lo, hi, out, np.float64, 1.0)

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
        if const and (t[:, 1] != prime_vec).any():
            i = np.argmax(t[:, 1] != prime_vec)
            raise ValueError(f"multiplicative rule at ({p[i, 0]},1) is not {prime_vec}")
        return t

    def finish(v, r):
        if const:
            np.multiply(v, prime_vec, out=v, where=r > 1)
            return
        pos = np.flatnonzero(r > 1)
        pv = np.asarray(prime_vec(r[pos].astype(np.int64)), dtype=np.float64)
        if (pv < 0).any():
            raise ValueError("multiplicative rule negative at a prime")
        if (pv != 1.0).any():  # as the walk skips f(p) = 1, so does the finish
            v[pos] *= pv

    _walk(lo, hi, primes, np.multiply, vals, values, identity=1.0,
          finish=None if prime_vec == 1.0 else finish)
    return vals


def sigma_window(lo: int, hi: int, out=None) -> np.ndarray:
    """Divisor sums sigma(n) for [lo, hi) as int64; sieves its own primes.

    sigma(p**e) = 1 + p + ... + p**e is a running sum along each prime's
    powers.  A cofactor left by the walk is 1 or a prime q, so
    rem += rem > 1 gives sigma(rem).
    """
    if hi > 1 << 55:
        raise OverflowError("sigma window above 2**55 could overflow int64")
    sig = _filled(lo, hi, out, np.int64, 1)

    def finish(s, r):
        r += r > 1
        s *= r

    _walk(lo, hi, primes_upto(isqrt(hi - 1)), np.multiply, sig,
          lambda p, e, pe: np.cumsum(pe, axis=1), identity=1, finish=finish)
    return sig


def lambda_window(lo, hi, primes, out=None) -> np.ndarray:
    """Carmichael lambda for [lo, hi) as int64, exact via running lcm."""
    lam = _filled(lo, hi, out, np.int64, 1)

    def values(p, e, pe):
        t = pe // p * (p - 1)  # p**(e-1) * (p - 1)
        if p[0, 0] == 2:
            t[0, 3:] //= 2  # lambda(2**e) = 2**(e-2) from e = 3 on
        return t

    def finish(la, r):
        pos = np.flatnonzero(r > 1)
        q = r[pos].astype(np.int64)
        q -= 1  # lambda(q)
        lv = la[pos]
        la[pos] = lv // np.gcd(lv, q) * q

    _walk(lo, hi, primes, np.lcm, lam, values, identity=1, finish=finish)
    return lam


def lpf_window(lo, hi, primes, out=None) -> np.ndarray:
    """Largest prime factor for [lo, hi) as int64; 1 maps to 1."""
    lpf = _filled(lo, hi, out, np.int64, 1)
    _walk(lo, hi, primes, np.maximum, lpf, lambda p, e, pe: p,
          finish=lambda o, r: np.maximum(o, r, out=o))
    return lpf


def _assemble(worker, x: int, dtype, threads: int) -> np.ndarray:
    out = np.zeros(x + 1, dtype=dtype)
    fill_windows(out[1:], 1, worker, threads)
    return out


def counts_range(x, primes, kind="omega", selector=None, threads=1):
    """Array c with c[n] = omega(n, E) or bigomega(n, E) for 0 <= n <= x."""
    return _assemble(lambda a, b, dest: counts_window(a, b, primes, kind, selector, out=dest),
                     x, np.uint8, threads)


def mult_range(x, primes, rule, prime_vec, threads=1):
    """Array v with v[n] = f(n) for a multiplicative f; v[0] = 0."""
    out = _assemble(lambda a, b, dest: mult_window(a, b, primes, rule, prime_vec, out=dest),
                    x, np.float64, threads)
    out[0] = 0.0
    return out


def sigma_range(x, threads=1):
    """Array s with s[n] = sigma(n); s[0] = 0."""
    return _assemble(lambda a, b, dest: sigma_window(a, b, out=dest), x, np.int64, threads)


def lpf_range(x, primes, threads=1):
    """Array l with l[n] = largest prime factor of n (1 for n = 1); l[0] = 0."""
    out = _assemble(lambda a, b, dest: lpf_window(a, b, primes, out=dest), x, np.int64, threads)
    out[0] = 0
    return out


class OmegaTable:
    """omega(m) for 0 <= m <= limit, 4 bits per odd m, filled on demand.

    omega(m) = [m even] + omega(m's odd part), so only odd m are stored.
    omega(m) <= 15 for every m < 2**64, as the product of the first 16
    primes exceeds 2**64, so two entries share a byte: byte t holds
    omega(4t + 1) in its low nibble and omega(4t + 3) in its high one.  The
    bytes are np.empty.  counts_window fills them in aligned windows of m, one
    block wide, and only the windows up to the largest m asked for, so the
    pages past it are never touched.  The block is DEFAULT_WINDOW as the table
    is made, rounded up to a multiple of 4, so that each window starts and
    ends on a byte: an odd block would split a byte between two windows.

    Threads may share a table.  Each window has a lock, held while it is
    filled.  A reader first fills, in ascending order, every empty window it
    needs whose lock no other thread holds, so threads that need the same
    windows fill different ones at once; then it waits for the lock of each
    window still empty and fills it if it is empty still.  A fill that
    raises leaves its window empty: the next reader fills it again.
    """

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("limit must be nonnegative")
        self.limit = limit
        self.nib = np.empty(limit // 4 + 1, dtype=np.uint8)
        self._end = 4 * self.nib.size  # the windows cover [0, _end), whole bytes
        self._primes = primes_upto(isqrt(self._end - 1))
        self._block = -(-DEFAULT_WINDOW // 4) * 4  # whole bytes per window too
        windows = -(-self._end // self._block)
        self._fills: list[bool | None] = [None] * windows  # True once filled
        self._locks = [threading.Lock() for _ in range(windows)]
        self._ready = 0  # windows below this one are all filled
        self._twos = np.zeros(1 << 16, dtype=np.uint8)  # the factors of 2 in i, 16 for i = 0
        for e in range(1, 17):
            self._twos[:: 1 << e] = e

    def cover(self, top: int) -> None:
        """Fill every window that holds an m <= top, or wait for the threads filling them."""
        if top > self.limit:
            raise ValueError(f"omega table reaches {self.limit}, not {top}")
        last = top // self._block
        for blocking in (False, True):
            for k in range(self._ready, last + 1):
                if self._fills[k] is None and self._locks[k].acquire(blocking):
                    try:
                        if self._fills[k] is None:
                            self._fill(k)
                            self._fills[k] = True
                    finally:
                        self._locks[k].release()
        self._ready = max(self._ready, last + 1)  # a stale write only rescans filled windows

    def _fill(self, k: int) -> None:
        a = k * self._block
        b = min(a + self._block, self._end)
        lo = max(a, 1)  # m = 0 is even: the table holds no entry for it
        counts = np.empty(b - a, dtype=np.uint8)
        counts_window(lo, b, self._primes, "omega", out=counts[lo - a :])
        byte = self.nib[a >> 2 : b >> 2]
        np.left_shift(counts[3::4], 4, out=byte)
        byte |= counts[1::4]

    def take(self, m: np.ndarray) -> np.ndarray:
        """omega(m) as uint8 for an int64 array of 0 <= m <= limit, which it overwrites.

        The windows that hold max(m) and everything below it are filled
        first.
        """
        if not m.size:
            return np.zeros(0, dtype=np.uint8)
        self.cover(int(m.max()))
        twos = self._twos[m.astype(np.uint16)]  # the factors of 2 in m's low 16 bits
        m >>= twos
        for i in np.flatnonzero(twos == 16).tolist():  # 2**16 divides m: one at a time
            v = int(m[i])
            m[i] = v // (v & -v) if v else 1  # m = 0 reads omega(1) = 0 ...
            twos[i] = bool(v)  # ... and counts no factor 2
        np.minimum(twos, 1, out=twos)  # [m even]
        shift = m.astype(np.uint8)  # bit 1 of the odd part picks the nibble
        shift &= 2
        shift <<= 1
        m >>= 2
        keys = self.nib[m]
        keys >>= shift
        keys &= 15
        keys += twos
        return keys
