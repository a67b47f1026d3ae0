"""Vectorized sieve windows against scalar oracles.

Each array builder is compared entry by entry with the trial-division
oracle on a small range, then checked for window-width and thread-count
invariance on a larger one.
"""

import numpy as np
import pytest

from siftlab import bulk
from siftlab.primesets import ResidueClasses

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
    for build in (
        lambda t: bulk.sigma_range(60000, threads=t, width=8192),
        lambda t: bulk.lambda_range(60000, primes, threads=t, width=8192),
        lambda t: bulk.lpf_range(60000, primes, threads=t, width=8192),
    ):
        assert build(1).tobytes() == build(8).tobytes()


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
    lam = bulk.lambda_window(lo, hi, primes)
    lp = bulk.lpf_window(lo, hi, primes)
    for n in range(lo, hi):
        parts = ofactor(n)
        i = n - lo
        assert om[i] == len(parts)
        assert bo[i] == sum(e for p, e in parts if p % 4 == 1)
        w = 1.0
        for p, e in parts:
            w *= e + 1 / p
        assert fv[i] == w
        assert lam[i] == olam(n)
        assert lp[i] == (parts[-1][0] if parts else 1)
