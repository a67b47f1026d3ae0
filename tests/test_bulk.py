"""Vectorized sieve windows against scalar oracles.

Each array builder is compared entry by entry with the trial-division
oracle on a small range, then checked for window-width and thread-count
invariance on a larger one.
"""

import collections
import hashlib
import threading
import time
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from siftlab import bulk
from siftlab.primesets import ALL_PRIMES, ResidueClasses
from siftlab.specs import parse_weight

from conftest import lambda_upto
from oracles import ofactor, olam, osieve, osigma


def test_sieve_flags_and_primes_upto():
    assert bulk.primes_upto(-1).size == 0
    assert bulk.primes_upto(1).size == 0
    assert bulk.primes_upto(2).tolist() == [2]
    assert bulk.primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    p100 = bulk.primes_upto(100)
    assert len(p100) == 25
    assert p100[0] == 2 and p100[-1] == 97
    assert p100.tolist() == np.flatnonzero(osieve(100)).tolist()


def test_flags_window_matches_full_sieve():
    primes = bulk.primes_upto(1000)
    full = osieve(300000)
    for lo, hi in [(0, 50), (1, 2), (100, 1000), (299000, 300001)]:
        got = bulk.flags_window(lo, hi, primes)
        assert np.array_equal(got, full[lo:hi])
    assert bulk.flags_window(10, 10, primes).size == 0


def test_window_ranges_partition():
    ranges = bulk.window_ranges(1, 1000, 256)
    assert ranges[0] == (1, 257)
    assert ranges[-1][1] == 1000
    covered = []
    for a, b in ranges:
        covered.extend(range(a, b))
    assert covered == list(range(1, 1000))
    with pytest.raises(ValueError):
        bulk.window_ranges(1, 10, 0)


def test_stream_windows_preserves_order():
    ranges = bulk.window_ranges(0, 40, 7)
    serial = list(bulk.stream_windows(lambda a, b: (a, b), ranges, threads=1))
    pooled = list(bulk.stream_windows(lambda a, b: (a, b), ranges, threads=4))
    assert serial == pooled == ranges


@pytest.mark.parametrize("threads", [2, 3])
def test_stream_windows_bounds_windows_in_flight(threads):
    # A window is in flight from the start of its worker until the consumer
    # takes its result.  The consumer is slower than the workers, so a pool
    # handed every range at once would have all 40 in flight.
    lock = threading.Lock()
    live = peak = 0

    def worker(a, b):
        nonlocal live, peak
        with lock:
            live += 1
            peak = max(peak, live)
        return a, b

    ranges = bulk.window_ranges(0, 280, 7)
    got = []
    for r in bulk.stream_windows(worker, ranges, threads):
        time.sleep(0.002)
        with lock:
            live -= 1
        got.append(r)
    assert got == ranges
    assert 1 < peak <= 2 * threads


def _ospf(n):
    """spf_window's value at n: its least prime factor, or 0 for a prime and 1."""
    parts = ofactor(n)
    return 0 if n == 1 or parts == [(n, 1)] else parts[0][0]


def test_spf_window_values():
    # every window with hi <= 48, and up to hi = 600 the windows from 1 and 2, the
    # upper half and the last n, each over the least table that covers its root
    want = [None] + [_ospf(n) for n in range(1, 600)]
    windows = {(lo, hi) for hi in range(2, 49) for lo in range(1, hi)}
    windows |= {(lo, hi) for hi in range(3, 601) for lo in (1, 2, hi // 2, hi - 1)}
    for lo, hi in sorted(windows):
        got = bulk.spf_window(lo, hi, bulk.primes_upto(isqrt(hi - 1)))
        assert got.dtype == np.uint32
        assert got.tolist() == want[lo:hi], (lo, hi)


def test_spf_window_tolerates_primefree_gap_above_table():
    # sqrt reaches 12 but no prime lives in (11, 12], so this must work
    spf = bulk.spf_window(2, 145, bulk.primes_upto(11))
    assert int(spf[144 - 2]) == 2
    assert int(spf[143 - 2]) == 11


def test_spf_window_rejects_missing_prime():
    with pytest.raises(ValueError):
        bulk.spf_window(2, 170, bulk.primes_upto(11))
    with pytest.raises(ValueError):
        bulk.spf_window(0, 10, bulk.primes_upto(10))
    with pytest.raises(ValueError):
        bulk.spf_window(5, 5, bulk.primes_upto(10))


SPF_BYTES_SHA256 = "22ee72abf80c48be184ed80bb867c2241f91af2ec7cf77fb1b03218a9a6ddd39"


def test_spf_window_bytes_pinned():
    # one sha256 over windows from 1 to 1e12, one straddling 2**32 and one of
    # 2**20 + 12345 at 1e10, whose batch primes come in several groups;
    # recorded while spf_window still ran its own loop over the small primes
    w = (1 << 17) + 12345
    windows = [(lo, lo + w) for lo in (1, 10**6, 10**9, 2**32 - 2**16, 10**10, 10**12)]
    windows.append((10**10, 10**10 + (1 << 20) + 12345))
    digest = hashlib.sha256()
    for lo, hi in windows:
        digest.update(bulk.spf_window(lo, hi, bulk.primes_upto(isqrt(hi - 1))).tobytes())
    assert digest.hexdigest() == SPF_BYTES_SHA256


def test_counts_window_against_oracle():
    primes = bulk.primes_upto(100)
    om = bulk.counts_window(1, 3001, primes, "omega")
    bo = bulk.counts_window(1, 3001, primes, "bigomega")
    for n in range(1, 3001):
        parts = ofactor(n)
        assert om[n - 1] == len(parts)
        assert bo[n - 1] == sum(e for _, e in parts)


def test_counts_window_restricted_to_residue_class():
    primes = bulk.primes_upto(100)
    E = ResidueClasses(4, (1,))
    om = bulk.counts_window(1, 3001, primes, "omega", selector=E)
    bo = bulk.counts_window(1, 3001, primes, "bigomega", selector=E)
    for n in range(1, 3001):
        parts = ofactor(n)
        assert om[n - 1] == sum(1 for p, _ in parts if p % 4 == 1)
        assert bo[n - 1] == sum(e for p, e in parts if p % 4 == 1)


def test_counts_window_big_prime_residual_respects_selector():
    # 2 * 101: the factor above the window root must still pass the filter
    primes = bulk.primes_upto(100)
    E = ResidueClasses(4, (1,))
    om = bulk.counts_window(202, 203, primes, "omega", selector=E)
    assert om[0] == 1
    om3 = bulk.counts_window(206, 207, primes, "omega", selector=E)
    assert om3[0] == 0  # 206 = 2 * 103, 103 = 3 mod 4


def test_counts_window_input_errors():
    primes = bulk.primes_upto(100)
    with pytest.raises(ValueError):
        bulk.counts_window(0, 10, primes)
    with pytest.raises(ValueError):
        bulk.counts_window(1, 10, primes, kind="tau")


def test_counts_range_alignment_and_threads(window_width):
    primes = bulk.primes_upto(200)
    window_width(4096)
    c = bulk.counts_range(20000, primes, "omega", threads=1)
    assert c[0] == 0 and c[1] == 0 and c[2] == 1 and c[12] == 2
    c4 = bulk.counts_range(20000, primes, "omega", threads=4)
    assert c.tobytes() == c4.tobytes()
    window_width(977)
    cw = bulk.counts_range(20000, primes, "omega", threads=1)
    assert c.tobytes() == cw.tobytes()


def test_mult_range_two_to_omega():
    primes = bulk.primes_upto(200)
    c = bulk.counts_range(5000, primes, "omega")
    v = bulk.mult_range(5000, primes, lambda p, e: 2.0, lambda a: np.full(len(a), 2.0))
    assert v[0] == 0.0 and v[1] == 1.0
    assert np.array_equal(v[1:], 2.0 ** c[1:].astype(np.float64))


def test_mult_range_squarefree_indicator():
    primes = bulk.primes_upto(200)
    v = bulk.mult_range(
        5000, primes, lambda p, e: 1.0 if e == 1 else 0.0, lambda a: np.ones(len(a))
    )
    for n in range(1, 5001):
        assert v[n] == (1.0 if all(e == 1 for _, e in ofactor(n)) else 0.0)


def test_mult_window_rejects_negative_rule():
    primes = bulk.primes_upto(100)
    with pytest.raises(ValueError):
        bulk.mult_window(1, 100, primes, lambda p, e: -1.0, lambda a: np.ones(len(a)))
    with pytest.raises(ValueError):
        bulk.mult_window(1, 100, primes, lambda p, e: 1.0, lambda a: -np.ones(len(a)))


def test_sigma_range_against_oracle():
    s = bulk.sigma_range(3000)
    assert s[0] == 0 and s[1] == 1
    for n in range(1, 3001):
        assert s[n] == osigma(n)


def test_sigma_window_high_range():
    lo = 10**8
    sig = bulk.sigma_window(lo, lo + 100)
    for n in range(lo, lo + 100, 13):
        parts = ofactor(n)
        expect = 1
        for p, e in parts:
            expect *= (p ** (e + 1) - 1) // (p - 1)
        assert int(sig[n - lo]) == expect


def test_sigma_window_overflow_guard():
    with pytest.raises(OverflowError):
        bulk.sigma_window((1 << 55) + 10, (1 << 55) + 20)


def test_lambda_windows_against_oracle():
    primes = bulk.primes_upto(200)
    lam = lambda_upto(3000, primes)
    assert lam[0] == 0 and lam[1] == 1 and lam[2] == 1
    for n in range(1, 3001):
        assert lam[n] == olam(n)


def test_lambda_window_high_range(t1e6):
    lo = 10**6
    lam = bulk.lambda_window(lo, lo + 512, t1e6.primes)
    for n in range(lo, lo + 512, 37):
        assert int(lam[n - lo]) == olam(n)


def test_lpf_range_against_oracle():
    primes = bulk.primes_upto(200)
    lp = bulk.lpf_range(3000, primes)
    assert lp[0] == 0 and lp[1] == 1
    for n in range(2, 3001):
        assert lp[n] == ofactor(n)[-1][0]


def test_range_builders_thread_invariant(window_width):
    primes = bulk.primes_upto(500)
    E = ResidueClasses(4, (1,))
    default = bulk.DEFAULT_WINDOW
    for build in (
        lambda t: bulk.counts_range(60000, primes, "bigomega", E, threads=t),
        lambda t: bulk.mult_range(
            60000, primes, lambda p, e: e + 1 / p, lambda a: 1 + 1 / a.astype(np.float64),
            threads=t,
        ),
        lambda t: bulk.sigma_range(60000, threads=t),
        lambda t: lambda_upto(60000, primes, threads=t),
        lambda t: bulk.lpf_range(60000, primes, threads=t),
    ):
        window_width(default)
        ref = build(1).tobytes()
        window_width(8192)
        assert build(1).tobytes() == ref
        assert build(8).tobytes() == ref


def _extra_bytes(build, x: int) -> int:
    """Traced peak of build(x) minus the bytes of the array it returns."""
    tracemalloc.start()
    try:
        out = build(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["counts", "mult"])
def test_range_memory_does_not_grow_with_x(kind, threads, window_width):
    # Each window writes its slice of the output as it finishes, so beside the
    # output a range holds at most one working set and one window per thread,
    # however many windows it has.  Keeping every window's result until all are
    # done, and copying them out afterwards, fails this: 27 windows hold 24
    # windows more than 3 do.  The working set is measured with 1 thread at 3
    # windows; 2 threads overlap theirs by a varying amount, up to twice that.
    width = window_width(1 << 16)
    musq = parse_weight("musq")
    primes = bulk.primes_upto(isqrt(27 * width))

    def build(x, threads):
        if kind == "counts":
            return bulk.counts_range(x, primes, "omega", threads=threads)
        return bulk.mult_range(x, primes, musq.rule, musq.at_primes, threads=threads)

    window_out = width * build(1, 1).itemsize
    working_set = _extra_bytes(lambda x: build(x, 1), 3 * width)
    assert _extra_bytes(lambda x: build(x, threads), 27 * width) < threads * (
        working_set + window_out)


def test_counts_range_window_working_set(window_width):
    # Without a selector a window's kernel keeps one packed uint16 word per
    # integer and no cofactors, and its finish compares one dyadic block at
    # a time into a bool, so beside the output it holds about 3.2 bytes per
    # integer of a window.  A uint32 cofactor accumulator and its dividend
    # took that to about 8.1.
    width = window_width(1 << 16)
    primes = bulk.primes_upto(isqrt(3 * width))
    extra = _extra_bytes(lambda x: bulk.counts_range(x, primes, "omega"), 3 * width)
    assert extra <= 4 * width


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_COFACTOR_KERNELS = {
    "counts_sel": (np.uint8, lambda lo, hi, primes, out: bulk.counts_window(
        lo, hi, primes, "bigomega", ResidueClasses(4, (1,)), out=out)),
    "mult": (np.float64, lambda lo, hi, primes, out: bulk.mult_window(
        lo, hi, primes, lambda p, e: e + 1 / p, lambda a: 1 + 1 / a.astype(np.float64), out=out)),
    "sigma": (np.int64, lambda lo, hi, primes, out: bulk.sigma_window(lo, hi, out=out)),
    "lambda": (np.int64, lambda lo, hi, primes, out: bulk.lambda_window(lo, hi, primes, out=out)),
    "lpf": (np.int64, lambda lo, hi, primes, out: bulk.lpf_window(lo, hi, primes, out=out)),
}


@pytest.mark.parametrize("kernel", sorted(_COFACTOR_KERNELS))
@pytest.mark.parametrize("lo", [10**9, 10**10])
def test_cofactor_kernel_working_set(lo, kernel):
    # Beside its output a kernel that keeps cofactors holds its accumulator,
    # 4 bytes per integer below 2**32 and 8 above, and scratch that does not
    # grow with the window: the walk's finish and the kernel's run over
    # bulk.CHUNK entries at a time, and the batch primes come in groups of
    # about bulk.CHUNK multiples.  Traced extras are 5.6-6.4 bytes per integer
    # at 1e9 and 9.7-10.5 at 1e10; whole-window finishes, one batch and a
    # stored exponent per multiple of p**2 held up to 32.8 and 36.7 (lambda).
    width = 1 << 20
    hi = lo + width
    primes = bulk.primes_upto(isqrt(hi))
    dtype, call = _COFACTOR_KERNELS[kernel]
    out = np.empty(width, dtype=dtype)
    acc = 4 if hi <= 1 << 32 else 8
    assert _traced_peak(lambda: call(lo, hi, primes, out)) <= (acc + 6) * width


@pytest.mark.parametrize("lo, per_int", [(10**10, 1.25), (2**40, 3.5)])
def test_flags_window_working_set(lo, per_int):
    # The batch primes of the flag sieve come in groups of about bulk.CHUNK
    # multiples, so beside its 1-byte flags a 2**20 window traces 0.8 bytes
    # per integer at 1e10 and 2.8 at 2**40, where one batch over every prime
    # above the split traced 2.5 and 7.8.
    width = 1 << 20
    primes = bulk.primes_upto(isqrt(lo + width))
    peak = _traced_peak(lambda: bulk.flags_window(lo, lo + width, primes))
    assert peak <= (1 + per_int) * width


W = bulk.DEFAULT_WINDOW


@pytest.mark.parametrize("lo, hi", [
    (1, 5000),                  # from m = 1
    (W - 7, W + 9),             # across the first boundary, an odd multiple of 2**20
    (W, W + 4099),              # from an odd multiple, both nibbles
    (2 * W, 2 * W + 4099),      # from an even multiple
    (2 * W - 1, 3 * W + 2),     # a whole window and both ends, odd and even m
    (3 * W + 1, 3 * W + 6),     # up to the table's limit
])
def test_omega_table_against_counts_window(lo, hi):
    t = bulk.OmegaTable(3 * W + 5)
    m = np.arange(lo, hi, dtype=np.int64)
    rng = np.random.default_rng(lo)
    order = rng.permutation(m.size)  # gathered out of order, as aliquot sums come
    got = t.take(m[order].copy())
    assert got.dtype == np.uint8
    want = bulk.counts_window(lo, hi, bulk.primes_upto(isqrt(hi - 1)), "omega")
    assert np.array_equal(got, want[order])


def test_omega_table_fills_only_to_the_largest_m_read():
    t = bulk.OmegaTable(4 * W)
    assert t.take(np.array([0, 1, 6, W + 3])).tolist() == [0, 0, 2, len(ofactor(W + 3))]
    assert [f is not None for f in t._fills] == [True, True, False, False, False]
    t.take(np.array([12]))  # already filled: nothing more
    assert t._fills[2] is None
    assert t.take(np.zeros(0, dtype=np.int64)).size == 0
    with pytest.raises(ValueError, match="reaches"):
        t.take(np.array([4 * W + 2]))


def test_omega_table_at_an_odd_width(window_width):
    # the table reads the width once and rounds it up to whole bytes, 980, so no
    # byte of odd m is split between two windows' fills
    window_width(977)
    t = bulk.OmegaTable(100003)
    assert t.take(np.array([0, 5, 2000])).tolist() == [0, 1, 2]
    assert [f is not None for f in t._fills[:4]] == [True, True, True, False]
    assert sum(f is not None for f in t._fills) == 3  # 2000 lies in the third window
    got = t.take(np.arange(100004, dtype=np.int64))
    want = bulk.counts_window(1, 100004, bulk.primes_upto(isqrt(100003)), "omega")
    assert got[0] == 0 and np.array_equal(got[1:], want)


def test_omega_table_fills_each_window_once_for_concurrent_readers(monkeypatch):
    # two threads read the same three windows of a fresh table at once; each
    # window is filled by one of them, and both get every omega
    real = bulk.counts_window
    calls = collections.Counter()

    def slow(lo, hi, *args, **kwargs):
        calls[lo] += 1
        time.sleep(0.05)
        return real(lo, hi, *args, **kwargs)

    monkeypatch.setattr(bulk, "counts_window", slow)
    t = bulk.OmegaTable(3 * W)
    m = np.arange(1, 3 * W, 997, dtype=np.int64)
    got = [None, None]

    def read(i):
        got[i] = t.take(m.copy())

    readers = [threading.Thread(target=read, args=(i,), daemon=True) for i in range(2)]
    for r in readers:
        r.start()
    for r in readers:
        r.join(30)
    assert not any(r.is_alive() for r in readers)
    assert calls == {1: 1, W: 1, 2 * W: 1}
    want = real(1, 3 * W, bulk.primes_upto(isqrt(3 * W)), "omega")[m - 1]
    assert all(np.array_equal(g, want) for g in got)


def test_omega_table_fill_error_reaches_every_reader(monkeypatch):
    # the window [W, 2W) fails slowly, so the other thread is waiting on it
    # when it fails; that thread then fills it again and fails in turn, and
    # so does a later reader
    real = bulk.counts_window

    def failing(lo, hi, *args, **kwargs):
        if lo == W:
            time.sleep(0.3)
            raise ArithmeticError("forced fill failure")
        return real(lo, hi, *args, **kwargs)

    monkeypatch.setattr(bulk, "counts_window", failing)
    t = bulk.OmegaTable(3 * W)
    errors = []

    def read():
        try:
            t.take(np.array([2 * W + 1]))
        except ArithmeticError as exc:
            errors.append(exc)

    readers = [threading.Thread(target=read, daemon=True) for _ in range(2)]
    for r in readers:
        r.start()
    for r in readers:
        r.join(30)
    assert not any(r.is_alive() for r in readers)
    assert len(errors) == 2
    with pytest.raises(ArithmeticError, match="forced"):
        t.take(np.array([W]))


@pytest.mark.parametrize(
    "lo, hi",
    [
        (2**30 - 48, 2**30 + 48),
        (3**19 - 48, 3**19 + 48),
        (5**13 - 48, 5**13 + 48),
        (2**30, 2**30 + 1),
        (3**19, 3**19 + 1),
        (5**13, 5**13 + 1),
        (2**30 - 1, 2**30),
        (1, 2),
        (1, 1500),
    ],
)
def test_factor_kernels_against_oracle_at_dense_prime_powers(lo, hi):
    # windows around p**k for small p put high exponents of 2, 3 and 5 at
    # their centres; width-1 windows and lo = 1 are edges of the walk
    primes = bulk.primes_upto(40000)
    E = ResidueClasses(4, (1,))
    om = bulk.counts_window(lo, hi, primes, "omega")
    bo = bulk.counts_window(lo, hi, primes, "bigomega", selector=E)
    fv = bulk.mult_window(
        lo, hi, primes, lambda p, e: e + 1 / p, lambda a: 1 + 1 / a.astype(np.float64)
    )
    sig = bulk.sigma_window(lo, hi)
    lam = bulk.lambda_window(lo, hi, primes)
    lp = bulk.lpf_window(lo, hi, primes)
    for n in range(lo, hi):
        parts = ofactor(n)
        i = n - lo
        assert om[i] == len(parts)
        assert bo[i] == sum(e for p, e in parts if p % 4 == 1)
        w, sg = 1.0, 1
        for p, e in parts:
            w *= e + 1 / p
            sg *= (p ** (e + 1) - 1) // (p - 1)
        assert fv[i] == w
        assert sig[i] == sg
        assert lam[i] == olam(n)
        assert lp[i] == (parts[-1][0] if parts else 1)


# Primes above DEFAULT_WINDOW >> 7 = 8192 go through the walk's batch, one
# vectorized pass per window; these windows put p**2 and p**3 for such a p
# at their centres.
BATCHED_POWERS = [8209**2, 8209**3, 99991**2]


def _kernels(lo, hi, primes):
    E = ResidueClasses(4, (1,))
    return {
        "flags": bulk.flags_window(lo, hi, primes),
        "omega": bulk.counts_window(lo, hi, primes, "omega"),
        "bigomega": bulk.counts_window(lo, hi, primes, "bigomega"),
        "omega_sel": bulk.counts_window(lo, hi, primes, "omega", selector=E),
        "bigomega_sel": bulk.counts_window(lo, hi, primes, "bigomega", selector=E),
        "mult": bulk.mult_window(
            lo, hi, primes, lambda p, e: e + 1 / p, lambda a: 1 + 1 / a.astype(np.float64)
        ),
        "sigma": bulk.sigma_window(lo, hi),
        "lambda": bulk.lambda_window(lo, hi, primes),
        "lpf": bulk.lpf_window(lo, hi, primes),
    }


def _expected(n):
    parts = ofactor(n)
    w, sg = 1.0, 1
    for p, e in parts:
        w *= e + 1 / p
        sg *= (p ** (e + 1) - 1) // (p - 1)
    return {
        "flags": len(parts) == 1 and parts[0][1] == 1,
        "omega": len(parts),
        "bigomega": sum(e for _, e in parts),
        "omega_sel": sum(1 for p, _ in parts if p % 4 == 1),
        "bigomega_sel": sum(e for p, e in parts if p % 4 == 1),
        "mult": w,
        "sigma": sg,
        "lambda": olam(n, parts),
        "lpf": parts[-1][0],
    }


@pytest.mark.parametrize("power", BATCHED_POWERS)
def test_batched_primes_against_oracle(power):
    width = bulk.DEFAULT_WINDOW
    lo = power - width // 2
    primes = bulk.primes_upto(isqrt(lo + width))
    got = _kernels(lo, lo + width, primes)
    p = ofactor(power)[0][0]
    assert p > width >> 7
    rng = np.random.default_rng(power)
    positions = set(rng.choice(width, 256, replace=False).tolist())
    positions |= set(range(-lo % (p * p), width, p * p))  # every multiple of p**2
    assert width // 2 in positions
    for i in sorted(positions):
        want = _expected(lo + i)
        for kernel, arr in got.items():
            assert arr[i] == want[kernel], (kernel, lo + i)
    # widths 1 and 97 batch every prime, the default width only those above 8192
    for w in (1, 97):
        for a in (lo, lo + width // 2 - 48):
            for kernel, arr in _kernels(a, a + w, primes).items():
                assert arr.tobytes() == got[kernel][a - lo : a - lo + w].tobytes(), (kernel, a, w)


@pytest.mark.parametrize(
    "lo, bad, named",
    [
        (8209**2 - 1000, {8209}, 8209),
        (8209**2 - 1000, {8209, 8219}, 8209),
        (8209**2 - 1000, {8231, 9000011}, 8231),
        (10**9, {8209}, 8209),
        (10**10, {50021, 99991}, 50021),
    ],
)
def test_mult_window_negative_rule_names_smallest_batched_prime(lo, bad, named):
    # the rule is checked at every p**e < hi of each prime with a multiple
    # in the window, whether or not the window holds p**e itself
    primes = bulk.primes_upto(isqrt(lo + bulk.DEFAULT_WINDOW))
    rule = lambda p, e: -1.0 if p in bad and e == 2 else 1.0
    with pytest.raises(ValueError, match=rf"^multiplicative rule negative at \({named},2\)$"):
        bulk.mult_window(lo, lo + bulk.DEFAULT_WINDOW, primes, rule, lambda a: np.ones(len(a)))


KERNEL_BYTES_SHA256 = "8cd124dde9e30d1703b61190bb722af9366c88ae127d0828542b1f66eb546d12"


def test_kernel_bytes_pinned():
    # one sha256 over every factor kernel on two windows that cross the
    # batch split; recorded before the large primes were batched
    width = 1 << 16
    primes = bulk.primes_upto(isqrt(10**10 + width))
    E = ResidueClasses(4, (1,))
    digest = hashlib.sha256()
    for lo in (10**9, 10**10):
        hi = lo + width
        arrays = [
            bulk.counts_window(lo, hi, primes, kind, sel)
            for kind in ("omega", "bigomega") for sel in (None, E)
        ]
        for spec in ("musq", "zomega:1.3", "phioverN"):
            f = parse_weight(spec)
            arrays.append(bulk.mult_window(lo, hi, primes, f.rule, f.at_primes))
        arrays += [
            bulk.sigma_window(lo, hi),
            bulk.lambda_window(lo, hi, primes),
            bulk.lpf_window(lo, hi, primes),
        ]
        for arr in arrays:
            digest.update(arr.tobytes())
    assert digest.hexdigest() == KERNEL_BYTES_SHA256


def _check_mult_rule(rule, window_width):
    primes = bulk.primes_upto(200)
    ones = lambda a: np.ones(len(a))
    v = bulk.mult_range(30000, primes, rule, ones)
    for n in range(1, 30001):
        want = 1.0
        for p, e in ofactor(n):
            want *= rule(p, e)
        assert v[n] == want, n
    # width 8192 batches the primes above 64
    window_width(8192)
    assert bulk.mult_range(30000, primes, rule, ones).tobytes() == v.tobytes()


def test_mult_rule_with_identity_at_p(window_width):
    # f(p) = 1 skips the strided pass; the multiples of p**2 still get f(p**e)
    _check_mult_rule(lambda p, e: 1.0 if e == 1 else 3.0, window_width)


def test_mult_deep_rule_with_identity_at_p(window_width):
    # f(p**e) differs again from e = 3 on, so each f(p**e) must be applied to
    # the values saved before f(p**2) was written, not on top of it
    _check_mult_rule(lambda p, e: 1.0 if e == 1 else float(e * e + 1), window_width)


# The walk multiplies small parts in uint32 up to hi = 2**32 and in int64
# above; these windows end exactly at 2**32, straddle it, and hold 3**20.
@pytest.mark.parametrize(
    "lo, hi",
    [(2**32 - 2**20, 2**32), (2**32 - 2**19, 2**32 + 2**19), (3**20 - 2**17, 3**20 + 2**17)],
)
def test_factor_kernels_around_two_to_the_32(lo, hi):
    primes = bulk.primes_upto(isqrt(hi))
    got = _kernels(lo, hi, primes)
    rng = np.random.default_rng(lo)
    positions = set(rng.choice(hi - lo, 96, replace=False).tolist()) | {0, hi - lo - 1}
    for m in (2**31, 3**20):
        positions |= set(range(-lo % m, hi - lo, m))
    for i in sorted(positions):
        want = _expected(lo + i)
        for kernel, arr in got.items():
            assert arr[i] == want[kernel], (kernel, lo + i)


STRADDLE_BYTES_SHA256 = "f69ef3408a862c47fcdee17d763104935d8d38057a3f070755d475a6a0f15a33"


def test_kernel_bytes_pinned_around_two_to_the_32():
    # one sha256 over every kernel on a window ending at 2**32 and a 2**17
    # window straddling it; recorded before the uint32 accumulator
    primes = bulk.primes_upto(isqrt(2**32 + 2**16))
    digest = hashlib.sha256()
    for lo, hi in ((2**32 - 2**17, 2**32), (2**32 - 2**16, 2**32 + 2**16)):
        arrays = list(_kernels(lo, hi, primes).values())
        for spec in ("musq", "zomega:1.3", "phioverN"):
            f = parse_weight(spec)
            arrays.append(bulk.mult_window(lo, hi, primes, f.rule, f.at_primes))
        for arr in arrays:
            digest.update(arr.tobytes())
    assert digest.hexdigest() == STRADDLE_BYTES_SHA256


CHUNKED_BYTES_SHA256 = "e770482a86a615a3db1371a7e748f6e25e58d7f090cfd6ef160bc7b823c901a8"


def test_kernel_bytes_pinned_across_chunks():
    # one sha256 over every kernel, mult with a callable and with a number at
    # the primes, on windows wider than bulk.CHUNK and not a multiple of it,
    # one straddling 2**32, and one wide enough that the batch primes come
    # in several groups; recorded before the finishes were chunked
    w = (1 << 17) + 12345
    windows = [(10**9, 10**9 + w), (10**10, 10**10 + w), (2**32 - 2**16, 2**32 - 2**16 + w),
               (10**12, 10**12 + w), (10**10, 10**10 + (1 << 20) + 12345)]
    primes = bulk.primes_upto(isqrt(10**12 + w))
    digest = hashlib.sha256()
    for lo, hi in windows:
        arrays = list(_kernels(lo, hi, primes).values())
        for spec in ("musq", "zomega:1.3", "phioverN"):
            f = parse_weight(spec)
            arrays.append(bulk.mult_window(lo, hi, primes, f.rule, f.at_primes))
            arrays.append(bulk.mult_window(lo, hi, primes, f.rule, f.window_primes()))
        for arr in arrays:
            digest.update(arr.tobytes())
    assert digest.hexdigest() == CHUNKED_BYTES_SHA256


# width 2**20 at 1e6, a window straddling 2**32, and width 8192 at 1e10,
# where every prime above 64 goes through the batch
@pytest.mark.parametrize("lo, hi", [(10**6, 10**6 + 2**20), (2**32 - 2**15, 2**32 + 2**15),
                                    (10**10, 10**10 + 8192)])
def test_kernels_fill_a_dirty_out(lo, hi):
    primes = bulk.primes_upto(isqrt(hi))
    E = ResidueClasses(4, (1,))
    phi = parse_weight("phioverN")
    kernels = [
        lambda **kw: bulk.spf_window(lo, hi, primes, **kw),
        lambda **kw: bulk.counts_window(lo, hi, primes, "omega", **kw),
        lambda **kw: bulk.counts_window(lo, hi, primes, "bigomega", E, **kw),
        lambda **kw: bulk.mult_window(lo, hi, primes, phi.rule, phi.at_primes, **kw),
        lambda **kw: bulk.sigma_window(lo, hi, **kw),
        lambda **kw: bulk.lambda_window(lo, hi, primes, **kw),
        lambda **kw: bulk.lpf_window(lo, hi, primes, **kw),
    ]
    for kernel in kernels:
        want = kernel()
        dirty = np.full(want.nbytes, 0xAB, dtype=np.uint8).view(want.dtype)
        assert kernel(out=dirty) is dirty
        assert dirty.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            kernel(out=dirty[1:])
        with pytest.raises(ValueError):
            kernel(out=np.zeros(hi - lo, dtype=np.int8))  # no kernel's dtype


# Weights that take one value at every prime, passed to mult_window as that
# number c, against the same weight's callable; the windows sit at lo = 1 and
# 1e6, straddle 2**32, and at 1e10 with width 8192 batch every prime above 64.
CONSTANT_AT_PRIMES = ["one", "musq", "zomega:1.3", "zomega:0", "zbigomega:0.5", "tauk:3"]


@pytest.mark.parametrize("lo, hi", [(1, 1 + 2**20), (10**6, 10**6 + 2**20),
                                    (2**32 - 2**15, 2**32 + 2**15), (10**10, 10**10 + 8192)])
def test_mult_window_prime_value_matches_callable(lo, hi):
    # c = 1 keeps no cofactors and c != 1 finishes as vals *= c at the
    # cofactor primes; both must give the callable finish's bytes
    primes = bulk.primes_upto(isqrt(hi))
    for spec in CONSTANT_AT_PRIMES:
        f = parse_weight(spec)
        got = []
        for prime_vec in (f.at_primes, f.prime_value):
            dirty = np.full(8 * (hi - lo), 0xAB, dtype=np.uint8).view(np.float64)
            assert bulk.mult_window(lo, hi, primes, f.rule, prime_vec, out=dirty) is dirty
            got.append(dirty.tobytes())
        assert got[0] == got[1], spec


def test_mult_window_prime_value_is_checked(monkeypatch):
    # a small prime's rule(p, 1) must be c, at a scalar-pass prime and at a
    # batched one alike
    primes = bulk.primes_upto(isqrt(10**10 + 8192))
    for lo, hi, bad in ((1, 10**4, 7), (10**10, 10**10 + 8192, 101)):
        rule = lambda p, e: 1.0 if p == bad else 2.0
        with pytest.raises(ValueError, match=rf"^multiplicative rule at \({bad},1\) is not 2.0$"):
            bulk.mult_window(lo, hi, primes, rule, 2.0)
    # a negative c is refused before the walk
    monkeypatch.setattr(bulk, "_walk", None)
    with pytest.raises(ValueError, match="^multiplicative rule negative at a prime$"):
        bulk.mult_window(1, 100, primes, lambda p, e: -1.0, -1.0)


def test_mult_window_weight_one_at_primes_keeps_no_cofactors():
    # musq with c = 1 keeps no accumulator, no dividend and no finish: beside
    # its output a window holds under 1 byte per integer (about 0.4).  Through
    # a callable it holds about 6.0: its uint32 accumulator and one chunk of
    # the cofactor finish (21.4 when that finish took the whole window).
    lo, width = 9 * 10**6, 1 << 20
    primes = bulk.primes_upto(isqrt(lo + width))
    musq = parse_weight("musq")
    out = np.empty(width)
    assert _traced_peak(lambda: bulk.mult_window(lo, lo + width, primes, musq.rule, 1.0,
                                                 out=out)) <= width


# Without a selector counts_window learns whether n keeps a prime above
# r = isqrt(hi - 1) from a sum of rounded logarithms of its small primes,
# against a threshold set by the dyadic block [2**j, 2**(j+1)) that holds n.
# These windows put n at the edges of that bound: at powers of two, where
# the block changes; at r <= 2; and at the worst cases, n = q * m with q the
# least prime above r and m as large as fits, and smooth n near hi.


def _check_counts(lo, hi, primes, positions=None):
    om = bulk.counts_window(lo, hi, primes, "omega")
    bo = bulk.counts_window(lo, hi, primes, "bigomega")
    for n in range(lo, hi) if positions is None else positions:
        parts = ofactor(n)
        assert (om[n - lo], bo[n - lo]) == (len(parts), sum(e for _, e in parts)), (lo, hi, n)
    # the cofactor product path, checked against the oracle above, on every n
    for kind, got in (("omega", om), ("bigomega", bo)):
        assert got.tobytes() == bulk.counts_window(lo, hi, primes, kind, ALL_PRIMES).tobytes()


def test_log_counts_tiny_windows():
    primes = bulk.primes_upto(100)
    for hi in range(2, 10):  # r <= 2
        for lo in range(1, hi):
            _check_counts(lo, hi, primes)
    for hi in range(10, 600):
        _check_counts(1, hi, primes)


@pytest.mark.parametrize("k", range(2, 36))
def test_log_counts_straddle_powers_of_two(k):
    # above 2**30 trial division is slow, so the oracle sees the even n and
    # those next to 2**k; the product path still checks every n
    lo, hi = max(1, 2**k - 40), 2**k + 40
    primes = bulk.primes_upto(isqrt(hi))
    _check_counts(lo, hi, primes, range(lo, hi) if k <= 30 else
                  [n for n in range(lo, hi) if n % 2 == 0 or abs(n - 2**k) < 4])


def _largest(limit, gens):
    """The largest product of powers of gens that is at most limit."""
    best, stack = 1, [(1, 0)]
    while stack:
        m, i = stack.pop()
        best = max(best, m)
        stack += [(m * g, j) for j, g in enumerate(gens) if j >= i and m * g <= limit]
    return best


SMOOTH = [(2,), (3,), (5,), (7,), (2, 3), (3, 5), (2, 3, 5, 7)]


def _bound_cases(lo, hi):
    """q * m for the least prime q above isqrt(hi - 1) and the largest m that fits, smooth or
    not, and the largest smooth n below hi; those in [lo, hi)."""
    r = isqrt(hi - 1)
    q = next(q for q in range(r + 1, 2 * r + 3) if ofactor(q) == [(q, 1)])
    cases = {q * ((hi - 1) // q)} | {q * _largest((hi - 1) // q, g) for g in SMOOTH}
    cases |= {_largest(hi - 1, g) for g in SMOOTH}
    return {n for n in cases if lo <= n < hi}, q


@pytest.mark.parametrize("r", [2, 3, 4, 6, 10, 31, 100, 1000, 2**16 - 1, 2**16, 2**20 - 1])
def test_log_counts_worst_cases_of_the_bound(r):
    # hi = (r + 1)**2 is the last hi with root r: r = 2**16 - 1 ends the
    # window at 2**32, r = 2**16 straddles it, and r = 2**20 - 1 ends it at
    # 2**40, with a prime table to 2**20
    hi = (r + 1) ** 2
    primes = bulk.primes_upto(min(r + 200, 2**20))
    lo = max(1, hi - 2 * (r + 200))
    cases, q = _bound_cases(lo, hi)
    assert q * ((hi - 1) // q) in cases
    _check_counts(lo, hi, primes, sorted(cases | {lo, hi - 1}))


def test_log_counts_straddle_two_to_the_40():
    lo, hi = 2**40 - 2**15, 2**40 + 2**15
    primes = bulk.primes_upto(2**20)
    rng = np.random.default_rng(40)
    sample = set((lo + rng.choice(hi - lo, 6)).tolist()) | {2**40 - 1, 2**40, 2**40 + 1}
    _check_counts(lo, hi, primes, sorted(_bound_cases(lo, hi)[0] | sample))
