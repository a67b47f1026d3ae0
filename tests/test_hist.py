"""Weighted histograms and their reference bounds.

Bound formulas are recomputed independently inside the tests from the
published shapes, so ratio bookkeeping cannot drift unnoticed.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from siftlab import arith, bulk, hist as H, multfunc as mf, sift as sf, specs
from siftlab.primesets import ALL_PRIMES, Complement, ResidueClasses

from oracles import oadmits, ofactor


def test_histogram_small():
    s = sf.everything(10)
    h = H.weighted_histogram(s, mf.one())
    assert h.bins == {0: 1.0, 1: 7.0, 2: 2.0}
    assert h.total == 10.0
    assert s.count == 10
    assert h.g_kind == "omega"


def test_tail_masses_add_in_ascending_k(t1e5):
    # one float addition per bin in ascending k, as CPython 3.11's sum adds;
    # the compensated sum of CPython 3.12 and later would give 1.0 here
    h = H.WeightedHistogram(x=2, g_kind="omega", E=ALL_PRIMES, f=mf.one(),
                            bins={0: 1e16, 1: 1.0, 2: -1e16}, total=1.0, table=t1e5)
    assert h.mass_low(2) == 0.0
    assert h.mass_high(0) == 0.0
    assert h.mass_low(1) == 1e16
    assert h.mass_high(1) == -1e16


def test_histogram_against_scalar_loop():
    cond = sf.condition({2: (1,), 7: (3,)})
    sset = sf.sift(500, cond)
    E = ResidueClasses(4, (1,))
    f = mf.tau_k(2)
    h = H.weighted_histogram(sset, f, "bigomega", E)
    expect: dict[int, float] = {}
    total = 0.0
    for n in range(1, 501):
        if not oadmits(cond, n):
            continue
        parts = ofactor(n)
        k = sum(e for p, e in parts if p % 4 == 1)
        w = float(math.prod(e + 1 for _, e in parts))
        expect[k] = expect.get(k, 0.0) + w
        total += w
    assert h.bins == pytest.approx(expect)
    assert h.total == pytest.approx(total)


def test_histogram_mass_cutoffs():
    h = H.weighted_histogram(sf.everything(10), mf.one())
    assert h.mass_low(0) == 1.0
    assert h.mass_low(1) == 8.0
    assert h.mass_high(1) == 9.0
    assert h.mass_high(2.5) == 0.0
    assert h.mass_low(1) + h.mass_high(1.5) == h.total
    assert isinstance(h.mass_low(0), float)


def test_histogram_rejects_unknown_statistic():
    with pytest.raises(ValueError):
        H.weighted_histogram(sf.everything(10), mf.one(), "tau")


def test_histogram_thread_invariant():
    s = sf.sift(30000, sf.condition({3: (1,)}))
    a = H.weighted_histogram(s, mf.z_omega(2), threads=1)
    b = H.weighted_histogram(s, mf.z_omega(2), threads=8)
    assert a.bins == b.bins


def test_histogram_holds_no_counts_array_of_length_x():
    # The counts come window by window from one stream, so beyond its prime
    # table (a buffer of prime_count_bound int64) the histogram holds one
    # window's working set, the peak at x = one window, whatever x is.  A
    # uint8 counts array of length x + 1 adds x bytes between the two.
    def peak(x):
        sset = sf.sift(x, sf.NO_SIEVE)
        tracemalloc.start()
        try:
            H.weighted_histogram(sset, mf.one())
            return tracemalloc.get_traced_memory()[1] - 8 * bulk.prime_count_bound(x)
        finally:
            tracemalloc.stop()

    x = 4 * bulk.DEFAULT_WINDOW
    assert peak(x) - peak(bulk.DEFAULT_WINDOW) < x // 2


def test_weighted_histogram_working_set_has_no_term_in_x():
    # the prime table holds only its primes (a buffer of prime_count_bound
    # int64) and a congruence set is sieved per window, so beyond the primes
    # the peak is a few bytes per integer of one window; the table's flags and
    # the set's bitmap, 1 byte per integer of [0, x] each, would add 5.7 here
    x = 3 * 10**6
    sset = sf.sift(x, sf.condition({2: (1,)}))
    tracemalloc.start()
    try:
        h = H.weighted_histogram(sset, mf.one())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sset.count == x // 2 and h.total == x // 2
    assert peak <= 8 * bulk.prime_count_bound(x) + 8 * bulk.DEFAULT_WINDOW


@pytest.mark.parametrize("spec", ["sp:1,-1", "qf:1,1,2", "qf:1,0,1,shift=-3"])
def test_exact_set_histogram_working_set_has_no_term_in_x(spec):
    # an sp: or qf: set computes each window it is asked for, so from x to 4x the
    # peak beyond the histogram's prime table grows by a qf: window's rows (about
    # 192 bytes each, some 1500 more here), not by a bitmap of 1 byte per integer
    # of [0, x].  Both runs span two windows or more: the stream's consumer holds
    # one window's kept keys while the next one is computed
    ss = specs.parse_set_spec(spec)

    def peak(x):
        tracemalloc.start()
        try:
            H.weighted_histogram(ss.realize(x), mf.one())
            return tracemalloc.get_traced_memory()[1] - 8 * bulk.prime_count_bound(x)
        finally:
            tracemalloc.stop()

    x = 2 * bulk.DEFAULT_WINDOW
    assert peak(4 * x) - peak(x) < x // 2


def test_congruence_window_matches_bitmap_slices():
    # a congruence set's window equals the slice of the bitmap the set used
    # to keep: False at 0, then the scalar survivor test
    x = 2 * bulk.DEFAULT_WINDOW + 11
    cond = sf.condition({2: (1,), 3: (2,), 7: (1, 3, 5), 1048583: (4,)})
    n = np.arange(x + 1)
    bitmap = n >= 1
    for p, rs in cond.exclusions:
        bitmap &= ~np.isin(n % p, rs)
    s = sf.sift(x, cond)
    W = bulk.DEFAULT_WINDOW
    edges = [(0, 0), (0, 1), (0, 2), (0, W), (1, W + 1), (W - 1, W + 1), (W, 2 * W),
             (2 * W - 3, x + 1), (x, x + 1), (x + 1, x + 1), (0, x + 1)]
    for a, b in edges:
        assert s.window(a, b).tobytes() == bitmap[a:b].tobytes(), (a, b)
    assert s.count == int(np.count_nonzero(bitmap))
    assert np.array_equal(s.members(), np.flatnonzero(bitmap))
    with pytest.raises(ValueError):
        s.window(0, x + 2)
    with pytest.raises(ValueError):
        s.window(-1, 5)


def test_hr_ratio_bound_shape(t1e5):
    x = 10**4
    h = H.weighted_histogram(sf.everything(x), mf.one())
    rep = H.hr_ratio(h)
    M = mf.mertens_sum(mf.one(), x, table=t1e5)
    C = mf.hr_constant(x)
    assert rep.M == pytest.approx(M)
    assert rep.C == pytest.approx(C)
    assert rep.k_max == int(2.0 * M)
    for k, r in rep.general.items():
        bound = x / math.log(x) * (M + C) ** k / math.factorial(k)
        mass = h.bins.get(k, 0.0)
        assert r == pytest.approx(mass / bound, rel=1e-10)
    assert rep.prime_variant is not None
    for k, r in rep.prime_variant.items():
        bound = x / math.log(x) * (M + C) ** (k - 1) / math.factorial(k - 1)
        mass = h.bins.get(k, 0.0)
        assert r == pytest.approx(mass / bound, rel=1e-10)


def test_hr_ratio_zero_mass_bin_reports_zero():
    h = H.weighted_histogram(sf.everything(10), mf.one())
    rep = H.hr_ratio(h, beta=4.0)
    assert rep.k_max == 4 and max(h.bins) == 2
    assert rep.general.get(3, 0.0) == 0.0 and rep.general.get(4, 0.0) == 0.0
    assert rep.prime_variant.get(3, 0.0) == 0.0
    # the report stops at the largest occupied bin: every k past it reads 0.0
    assert sorted(rep.general) == [0, 1, 2] and sorted(rep.prime_variant) == [1, 2]


def test_hr_ratio_zero_mass_bins_past_an_underflowing_bound():
    # at beta = 200 the bound of bin k underflows to 0 long before k_max = 360; the
    # report stops at the last bin, so every k past it reads 0.0 without a division,
    # and a bin with mass is unchanged
    h = H.weighted_histogram(sf.everything(100), mf.one())
    wide, narrow = H.hr_ratio(h, beta=200.0), H.hr_ratio(h)
    assert max(h.bins) == narrow.k_max < wide.k_max == int(200.0 * wide.M)
    assert all(wide.general.get(k, 0.0) == 0.0 for k in range(narrow.k_max + 1, wide.k_max + 1))
    assert all(wide.prime_variant.get(k, 0.0) == 0.0
               for k in range(narrow.k_max + 1, wide.k_max + 1))
    assert {k: wide.general[k] for k in narrow.general} == narrow.general
    assert {k: wide.prime_variant[k] for k in narrow.prime_variant} == narrow.prime_variant


def test_histogram_and_its_four_reports_build_one_prime_table(monkeypatch):
    # the reports read the table the histogram was counted with, so the library
    # path sieves the primes to x once, as the CLI does
    built = []
    init = arith.PrimeTable.__init__

    def counted(self, limit):
        built.append(limit)
        init(self, limit)

    monkeypatch.setattr(arith.PrimeTable, "__init__", counted)
    h = H.weighted_histogram(sf.sift(20000, sf.condition({3: (1,)})), mf.one())
    H.hr_ratio(h)
    H.mgf_sum(h, 1.5)
    H.tail_masses(h, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        H.deviation(h, 1.0)
    assert built == [20000]
    assert h.table.limit == 20000 and h.cond == sf.condition({3: (1,)})


def test_hr_ratio_larger_constant_shrinks_ratios():
    x = 10**4
    h = H.weighted_histogram(sf.everything(x), mf.one())
    C = mf.hr_constant(x)
    a = H.hr_ratio(h, C=C)
    b = H.hr_ratio(h, C=2 * C)
    for k in a.general:
        if k >= 1 and a.general[k] > 0:
            assert b.general[k] < a.general[k]


def test_hr_ratio_restricted_set_has_no_prime_variant():
    h = H.weighted_histogram(
        sf.everything(1000), mf.one(), E=ResidueClasses(4, (1,))
    )
    rep = H.hr_ratio(h)
    assert rep.prime_variant is None
    assert all(r >= 0.0 for r in rep.general.values())


def test_hr_ratio_sieve_discount():
    cond = sf.condition({2: (1,), 3: (1, 2)})
    s = sf.sift(10**4, cond)
    h = H.weighted_histogram(s, mf.one())
    assert h.cond == cond
    with_nu = H.hr_ratio(h)
    without = H.hr_ratio(dataclasses.replace(h, cond=None))
    nu = sf.nu_sum(cond, 10**4)
    for k in with_nu.general:
        if without.general[k] > 0:
            assert with_nu.general[k] == pytest.approx(
                without.general[k] * math.exp(nu), rel=1e-10
            )


def test_hr_ratio_input_errors():
    h = H.weighted_histogram(sf.everything(10), mf.one())
    with pytest.raises(ValueError):
        H.hr_ratio(H.weighted_histogram(sf.everything(2), mf.one()))
    with pytest.raises(ValueError):
        H.hr_ratio(h, C=-10.0)
    for C in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^C must be finite"):
            H.hr_ratio(h, C=C)
    for beta in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="^beta must be positive and finite"):
            H.hr_ratio(h, beta=beta)


def test_q_rate():
    assert H.q_rate(0) == 1.0
    assert H.q_rate(1) == 0.0
    assert H.q_rate(2) == pytest.approx(2 * math.log(2) - 1)
    assert H.q_rate(0.5) == pytest.approx(0.5 * math.log(0.5) + 0.5)
    with pytest.raises(ValueError):
        H.q_rate(-0.1)


def test_q_rate_convex_on_grid():
    ys = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    vals = [H.q_rate(y) for y in ys]
    assert vals[2] == 0.0
    assert all(v >= 0 for v in vals)
    # strictly decreasing into the minimum at 1, increasing after
    assert vals[0] > vals[1] > vals[2] < vals[3] < vals[4] < vals[5]


def test_mgf_value_is_exact():
    x = 300
    ev = sf.everything(x)
    for z in (0.5, 1.5):
        for f in (mf.one(), mf.tau_k(2)):
            rep = H.mgf_sum(H.weighted_histogram(ev, f), z)
            expect = sum(
                math.prod(float(f.rule(p, e)) for p, e in ofactor(n))
                * z ** len(ofactor(n))
                for n in range(1, x + 1)
            )
            assert rep.value == pytest.approx(expect, rel=1e-12)
            assert rep.ratio == pytest.approx(rep.value / rep.bound, rel=1e-15)


def test_mgf_at_one_counts_the_set():
    rep = H.mgf_sum(H.weighted_histogram(sf.everything(300), mf.one()), 1.0)
    assert rep.value == 300.0
    cond = sf.condition({2: (1,)})
    s = sf.sift(300, cond)
    rep2 = H.mgf_sum(H.weighted_histogram(s, mf.one()), 1.0)
    assert rep2.value == float(s.count)


def test_mgf_bound_shape(t1e5):
    x = 10**4
    cond = sf.condition({2: (1,)})
    s = sf.sift(x, cond)
    E = ResidueClasses(4, (1,))
    rep = H.mgf_sum(H.weighted_histogram(s, mf.one(), E=E), 1.5)
    m_in = mf.mertens_sum(mf.one(), x, E, t1e5)
    m_all = mf.mertens_sum(mf.one(), x, table=t1e5)
    nu = sf.nu_sum(cond, x)
    expect = x / math.log(x) * math.exp(0.5 * m_in + m_all - nu)
    assert rep.bound == pytest.approx(expect, rel=1e-12)


def test_mgf_multiplicity_statistic_range_limit():
    ev = sf.everything(100)
    h = H.weighted_histogram(ev, mf.one(), "bigomega")
    with pytest.raises(ValueError):
        H.mgf_sum(h, 2.0)
    rep = H.mgf_sum(h, 1.9)
    assert rep.value > 0
    # restricting to odd primes re-admits z = 2
    odd = H.weighted_histogram(ev, mf.one(), "bigomega", E=ResidueClasses(4, (1, 3)))
    rep2 = H.mgf_sum(odd, 2.0)
    assert rep2.value > 0


def test_raw_multiplicity_growth_is_log_squared(t1e5):
    # sum of 2**bigomega(n) stays within a constant of x log^2 x
    x = 10**4
    big = bulk.counts_range(x, t1e5.primes, "bigomega")
    raw = float(np.sum(2.0 ** big[1:].astype(np.float64)))
    ratio = raw / (x * math.log(x) ** 2)
    assert 0.05 < ratio < 5.0
    assert ratio == pytest.approx(0.30721898385426094, rel=1e-12)


def test_mgf_input_errors():
    with pytest.raises(ValueError):
        H.mgf_sum(H.weighted_histogram(sf.everything(100), mf.one()), 0.0)
    with pytest.raises(ValueError):
        H.mgf_sum(H.weighted_histogram(sf.everything(2), mf.one()), 1.0)
    for z in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^z must be positive and finite"):
            H.mgf_sum(H.weighted_histogram(sf.everything(100), mf.one()), z)


def test_tail_masses_shape(t1e5):
    x = 10**4
    h = H.weighted_histogram(sf.everything(x), mf.one())
    rep = H.tail_masses(h, 0.5)
    M = rep.M
    assert rep.mass_low == h.mass_low(0.5 * M)
    assert rep.mass_high == h.mass_high(1.5 * M)
    pref = x / math.log(x) * math.exp(mf.mertens_sum(mf.one(), x, table=t1e5))
    expect_low = pref * math.exp(-H.q_rate(0.5) * M) / (0.5 * math.sqrt(0.5 * M))
    expect_high = pref * math.exp(-H.q_rate(1.5) * M) / (0.5 * math.sqrt(M))
    assert rep.bound_low == pytest.approx(expect_low, rel=1e-12)
    assert rep.bound_high == pytest.approx(expect_high, rel=1e-12)
    assert rep.ratio_low == pytest.approx(rep.mass_low / rep.bound_low)
    assert rep.ratio_high == pytest.approx(rep.mass_high / rep.bound_high)


def test_tail_masses_near_delta_one():
    h = H.weighted_histogram(sf.everything(10**4), mf.one())
    rep = H.tail_masses(h, 0.999)
    assert rep.mass_low >= 1.0  # n = 1 always sits in the low tail
    assert rep.bound_low > 0 and rep.bound_high > 0


def test_tail_masses_input_errors():
    h = H.weighted_histogram(sf.everything(100), mf.one())
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            H.tail_masses(h, bad)
    empty_E = Complement(ALL_PRIMES)
    h0 = H.weighted_histogram(sf.everything(100), mf.one(), E=empty_E)
    with pytest.raises(ValueError):
        H.tail_masses(h0, 0.5)


def test_deviation_tiny_threshold_captures_everything():
    h = H.weighted_histogram(sf.everything(1000), mf.one())
    rep = H.deviation(h, 1e-9)
    # M is irrational here, so every integer bin deviates
    assert rep.normalized == 1.0
    assert rep.mass_low + rep.mass_high == h.total


def test_deviation_monotone_in_threshold():
    h = H.weighted_histogram(sf.everything(10**4), mf.one())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals = [H.deviation(h, lam).normalized for lam in (0.5, 1.0, 1.5, 2.0)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_deviation_gauss_reference():
    h = H.weighted_histogram(sf.everything(1000), mf.one())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = H.deviation(h, 1.25)
    assert rep.gauss_ref == pytest.approx(math.exp(-1.25**2 / 2) / 1.25, rel=1e-15)
    assert rep.total == h.total


def test_deviation_warns_above_half_sigma():
    h = H.weighted_histogram(sf.everything(100), mf.one())
    with pytest.warns(UserWarning):
        H.deviation(h, 5.0)


def test_deviation_degenerate_mean():
    h = H.weighted_histogram(
        sf.everything(100), mf.one(), E=Complement(ALL_PRIMES)
    )
    rep = H.deviation(h, 1.0)
    assert rep.degenerate
    assert rep.normalized == 1.0
    assert rep.gauss_ref == math.inf
    assert rep.M == 0.0


def test_deviation_integer_cutoffs(t1e5):
    x = 3000
    omegas = [len(ofactor(n)) for n in range(1, x + 1)]
    h = H.weighted_histogram(sf.everything(x), mf.one())
    M = mf.mertens_sum(mf.one(), x, table=t1e5)
    for lam in (0.3, 0.5, 0.7):
        rep = H.deviation(h, lam)
        assert rep.k_low == math.floor(M - lam * math.sqrt(M))
        assert rep.k_high == math.ceil(M + lam * math.sqrt(M))
        assert rep.mass_low == sum(1 for k in omegas if k <= rep.k_low)
        assert rep.mass_high == sum(1 for k in omegas if k >= rep.k_high)
    # degenerate report: every n sits in bin 0, all of it in the low tail
    h0 = H.weighted_histogram(
        sf.everything(100), mf.one(), E=Complement(ALL_PRIMES)
    )
    rep = H.deviation(h0, 1.0)
    assert (rep.k_low, rep.k_high) == (0, 1)
    assert (rep.mass_low, rep.mass_high) == (100.0, 0.0)


def test_deviation_input_errors():
    h = H.weighted_histogram(sf.everything(100), mf.one())
    with pytest.raises(ValueError):
        H.deviation(h, 0.0)
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^lam must be positive and finite"):
            H.deviation(h, lam)
    empty = H.weighted_histogram(sf.sift(1, sf.condition({2: (1,)})), mf.one())
    assert empty.total == 0.0
    with pytest.raises(ValueError):
        H.deviation(empty, 1.0)
