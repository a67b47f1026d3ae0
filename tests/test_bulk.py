"""Vectorized sieve windows against scalar oracles.

Each array builder is compared entry by entry with the trial-division
oracle on a small range, then checked for window-width and thread-count
invariance on a larger one.
"""

import hashlib
from math import isqrt

import numpy as np
import pytest

from siftlab import bulk
from siftlab.primesets import ResidueClasses
from siftlab.specs import parse_weight

from oracles import ofactor, olam, osigma


def test_sieve_flags_and_primes_upto():
    assert bulk.primes_upto(1).size == 0
    assert bulk.primes_upto(2).tolist() == [2]
    assert bulk.primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    p100 = bulk.primes_upto(100)
    assert len(p100) == 25
    assert p100[0] == 2 and p100[-1] == 97
    with pytest.raises(ValueError):
        bulk.sieve_flags(-1)


def test_flags_window_matches_full_sieve():
    primes = bulk.primes_upto(1000)
    full = bulk.sieve_flags(300000)
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


def test_run_windows_preserves_order():
    ranges = bulk.window_ranges(0, 40, 7)
    serial = bulk.run_windows(lambda a, b: (a, b), ranges, threads=1)
    pooled = bulk.run_windows(lambda a, b: (a, b), ranges, threads=4)
    assert serial == pooled == ranges


def test_spf_window_values():
    primes = bulk.primes_upto(100)
    spf = bulk.spf_window(2, 50, primes)
    for n in range(2, 50):
        raw = int(spf[n - 2])
        expect = ofactor(n)[0][0]
        if expect == n:
            assert raw == 0
        else:
            assert raw == expect
    assert bulk.spf_window(1, 2, primes)[0] == 0


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


def test_counts_range_alignment_and_threads():
    primes = bulk.primes_upto(200)
    c = bulk.counts_range(20000, primes, "omega", threads=1, width=4096)
    assert c[0] == 0 and c[1] == 0 and c[2] == 1 and c[12] == 2
    c4 = bulk.counts_range(20000, primes, "omega", threads=4, width=4096)
    assert c.tobytes() == c4.tobytes()
    cw = bulk.counts_range(20000, primes, "omega", threads=1, width=977)
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


def test_lambda_range_against_oracle():
    primes = bulk.primes_upto(200)
    lam = bulk.lambda_range(3000, primes)
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


def test_range_builders_thread_invariant():
    primes = bulk.primes_upto(500)
    E = ResidueClasses(4, (1,))
    for build in (
        lambda t, w: bulk.counts_range(60000, primes, "bigomega", E, threads=t, width=w),
        lambda t, w: bulk.mult_range(
            60000, primes, lambda p, e: e + 1 / p, lambda a: 1 + 1 / a.astype(np.float64),
            threads=t, width=w,
        ),
        lambda t, w: bulk.sigma_range(60000, threads=t, width=w),
        lambda t, w: bulk.lambda_range(60000, primes, threads=t, width=w),
        lambda t, w: bulk.lpf_range(60000, primes, threads=t, width=w),
    ):
        ref = build(1, bulk.DEFAULT_WINDOW).tobytes()
        assert build(1, 8192).tobytes() == ref
        assert build(8, 8192).tobytes() == ref


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


def test_mult_rule_with_identity_at_p():
    # f(p) = 1 skips the strided pass; the multiples of p**2 still get f(p**e)
    primes = bulk.primes_upto(200)
    rule = lambda p, e: 1.0 if e == 1 else 3.0
    ones = lambda a: np.ones(len(a))
    v = bulk.mult_range(30000, primes, rule, ones)
    for n in range(1, 30001):
        want = 1.0
        for p, e in ofactor(n):
            want *= rule(p, e)
        assert v[n] == want, n
    # width 8192 batches the primes above 64
    assert bulk.mult_range(30000, primes, rule, ones, width=8192).tobytes() == v.tobytes()


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
