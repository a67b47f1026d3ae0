"""Multiplication-table counts, the density exponent, and sifted refinements."""

import math

import numpy as np
import pytest

from siftlab import arith, multfunc as mf, sift as sf, table as tb
from siftlab.errors import ResourceBudgetError

from oracles import brute_table_counts, is_prime_slow, ofactor, osifted_table_sum


def test_eta0_closed_form():
    l2 = math.log(2.0)
    assert tb.eta0() == pytest.approx(1.0 - (1.0 + math.log(l2)) / l2, rel=1e-15)
    assert tb.eta0() == pytest.approx(0.08607133205593431, abs=1e-15)
    assert 0 < tb.eta0() < 1


def test_table_count_small_values():
    assert [tb.table_count(n) for n in range(1, 9)] == [1, 3, 6, 9, 14, 18, 25, 30]


def test_table_count_matches_brute():
    brute = brute_table_counts(300)
    for N in (1, 2, 10, 50, 123, 300):
        assert tb.table_count(N) == brute[N]


def test_table_count_growth():
    prev = tb.table_count(1)
    for N in range(2, 61):
        cur = tb.table_count(N)
        # a fresh row adds at least one and at most 2N - 1 new products
        assert prev < cur <= prev + 2 * N - 1
        prev = cur


def test_table_count_window_and_thread_invariance():
    # N^2 on both sides of one 2^20 window, and across two of them
    brute = brute_table_counts(1100)
    for N in (1024, 1025, 1100):
        assert tb.table_count(N) == brute[N]
        assert tb.table_count(N, threads=2) == brute[N]
    assert tb.table_count(500, threads=4) == tb.table_count(500, threads=1)


def test_table_count_input_errors():
    with pytest.raises(ValueError):
        tb.table_count(0)
    with pytest.raises(ResourceBudgetError):
        tb.table_count((1 << 20) + 1)


def test_table_count_shift_matches_brute():
    for N, s in [(50, 1), (50, -1), (30, 5)]:
        expect = len(
            {
                a * b
                for a in range(1, N + 1)
                for b in range(a, N + 1)
                if a * b + s >= 2 and is_prime_slow(a * b + s)
            }
        )
        assert tb.table_count(N, shift=s) == expect


def test_table_count_shift_bounded_by_unshifted():
    for N in (20, 60):
        assert tb.table_count(N, shift=1) <= tb.table_count(N)
        assert tb.table_count(N, shift=-1) <= tb.table_count(N)


def test_table_count_shift_invariances():
    # N^2 = 1210000 spans two windows; a pure-Python sieve to N^2 + 1
    N = 1100
    top = N * N + 1
    prime = bytearray([1]) * (top + 1)
    prime[0] = prime[1] = 0
    for p in range(2, math.isqrt(top) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    prods = {a * b for a in range(1, N + 1) for b in range(a, N + 1)}
    for s in (1, -1):
        expect = sum(1 for n in prods if prime[n + s])
        for threads in (1, 2):
            assert tb.table_count(N, shift=s, threads=threads) == expect
    assert tb.table_count(200, shift=1, threads=4) == tb.table_count(200, shift=1)


def test_table_count_shift_input_errors():
    with pytest.raises(ValueError):
        tb.table_count(10, shift=0)
    with pytest.raises(ValueError):
        tb.table_count(0, shift=1)
    with pytest.raises(ResourceBudgetError):
        tb.table_count((1 << 20) + 1, shift=1)


def test_ford_ratio():
    A = tb.table_count(1000)
    assert A == 248083
    got = tb.ford_ratio(1000, A)
    ln = math.log(1000)
    expect = A * ln ** tb.eta0() * math.log(ln) ** 1.5 / 10**6
    assert got == pytest.approx(expect, rel=1e-15)
    assert got == pytest.approx(0.7871688420477512, rel=1e-12)
    with pytest.raises(ValueError):
        tb.ford_ratio(2, 3)


def test_sifted_table_sum_recovers_table_count(t1e5):
    for N in (10, 30, 60):
        rep = tb.sifted_table_sum(sf.everything(N * N), mf.one(), table=t1e5)
        assert rep.value == tb.table_count(N)


def test_sifted_table_sum_sieved_matches_brute(t1e5):
    N = 30
    cond = sf.condition({2: (1,)})
    s = sf.sift(N * N, cond)
    rep = tb.sifted_table_sum(s, mf.one(), table=t1e5)
    expect = len(
        {a * b for a in range(1, N + 1) for b in range(a, N + 1) if (a * b) % 2 == 0}
    )
    assert rep.value == expect


def test_sifted_table_sum_weighted_matches_brute(t1e5):
    N = 20
    rep = tb.sifted_table_sum(sf.everything(N * N), mf.tau_k(2), table=t1e5)
    prods = {a * b for a in range(1, N + 1) for b in range(a, N + 1)}
    expect = sum(math.prod(e + 1 for _, e in ofactor(n)) for n in prods)
    assert rep.value == pytest.approx(expect, rel=1e-12)


def test_sifted_table_sum_regimes(t1e5):
    mid = tb.sifted_table_sum(sf.everything(900), mf.one(), table=t1e5)
    assert mid.regime == "mid"
    assert 0.5 < mid.R < 1.0
    assert mid.bound_mid is not None and mid.ratio_mid == pytest.approx(
        mid.value / mid.bound_mid
    )
    low = tb.sifted_table_sum(sf.everything(10**4), mf.z_omega(0.5), table=t1e5)
    assert low.regime == "le-half"
    assert low.R <= 0.5
    assert low.bound_mid is None and low.ratio_mid is None
    out = tb.sifted_table_sum(sf.everything(3), mf.one(), table=t1e5)
    assert out.regime == "out-of-range"
    assert out.R > 1.0
    assert out.bound_mid is None


def test_sifted_table_sum_bound_shapes(t1e5):
    x = 900
    rep = tb.sifted_table_sum(sf.everything(x), mf.one(), table=t1e5)
    M = mf.mertens_sum(mf.one(), x, table=t1e5)
    pref = x / (math.log(x) * math.sqrt(M))
    expect_le = (1.0 + 4.0**M * math.sqrt(M) / math.log(x)) * pref * math.exp(
        2.0 * (1.0 - math.log(2.0)) * M
    )
    assert rep.bound_le_half == pytest.approx(expect_le, rel=1e-12)
    R = rep.R
    from siftlab.hist import q_rate

    lead = 1.0 / (1.0 - R) + 1.0 / math.sqrt(2.0 * R - 1.0)
    expect_mid = lead * pref * math.exp((1.0 - q_rate(1.0 / R)) * M)
    assert rep.bound_mid == pytest.approx(expect_mid, rel=1e-12)


def test_sifted_table_sum_thread_invariant(t1e5):
    a = tb.sifted_table_sum(sf.everything(2500), mf.one(), table=t1e5, threads=1)
    b = tb.sifted_table_sum(sf.everything(2500), mf.one(), table=t1e5, threads=8)
    assert a.value == b.value


def test_sifted_table_sum_rejects_tiny_x(t1e5):
    with pytest.raises(ValueError):
        tb.sifted_table_sum(sf.everything(2), mf.one(), table=t1e5)


def test_sifted_table_sum_across_two_windows():
    x = (1 << 20) + 4097
    B = math.isqrt(x)
    prods = {a * b for a in range(1, B + 1) for b in range(a, B + 1) if a * b <= x}
    t = arith.PrimeTable(x)
    rep = tb.sifted_table_sum(sf.everything(x), mf.one(), table=t)
    assert rep.value == len(prods)
    # {2: (1,)} removes the odd residue class, so the even products survive
    even = sf.sift(x, sf.condition({2: (1,)}))
    rep = tb.sifted_table_sum(even, mf.one(), table=t, threads=2)
    assert rep.value == len({n for n in prods if n % 2 == 0})


@pytest.mark.parametrize("f", [mf.z_omega(1.3), mf.phi_over_n()], ids=lambda f: f.spec)
def test_sifted_table_sum_equals_divisor_oracle_bitwise(f, t1e5):
    # the weights are summed one by one in ascending n, exactly as the
    # factor-and-divisor oracle does, so the doubles agree to the last bit
    x = 2 * 10**4
    sset = sf.everything(x)
    expect = osifted_table_sum(range(1, x + 1), x, f.rule)
    for threads in (1, 2):
        assert tb.sifted_table_sum(sset, f, table=t1e5, threads=threads).value == expect


@pytest.mark.parametrize("f", [mf.z_omega(1.3), mf.phi_over_n()], ids=lambda f: f.spec)
def test_sifted_table_sum_is_one_running_sum_across_windows(f):
    # three windows: the kept weights are added to one running sum in ascending
    # n, not summed per window and then added up
    x = 3_000_017
    B = math.isqrt(x)
    t = arith.PrimeTable(x)
    kept = np.zeros(x + 1, dtype=bool)
    for a in range(1, B + 1):
        kept[a * a : a * B + 1 : a] = True
    expect = 0.0
    for w in mf.values_upto(f, x, t)[kept].tolist():
        expect += w
    for threads in (1, 2):
        assert tb.sifted_table_sum(sf.everything(x), f, table=t, threads=threads).value == expect
