"""Shifted-prime statistics: divisor hits, the Carmichael image, deviations
over exact sets (the histograms the dev path runs), and prime-factor counts
at polynomial values.
"""

import io
import math
import sys
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest

from siftlab import bulk, cli, shifted as sh
from siftlab.arith import PrimeTable
from siftlab.errors import ResourceBudgetError
from siftlab.hist import deviation, weighted_histogram
from siftlab.multfunc import one
from siftlab.primesets import ALL_PRIMES, KroneckerSign
from siftlab.specs import parse_set_spec
from siftlab.table import eta0

from conftest import lambda_upto
from oracles import is_prime_slow, ofactor, ojoint_poly_omega, olambda_value


def _brute_shifted_divisor(a, u, v, x, y):
    hits = 0
    for p in range(2, x + 1):
        if not is_prime_slow(p):
            continue
        m = abs(u * p + v)
        if m <= 1:
            continue
        divs = [1]
        for q, e in ofactor(m):
            divs = [d * q**i for d in divs for i in range(e + 1)]
        if any(d > y and is_prime_slow(d + a) for d in divs if d + a >= 2):
            hits += 1
    return hits


def test_shifted_divisor_count_small():
    rep = sh.shifted_divisor_count(1, 1, -1, 20, 3)
    assert rep.count == 6
    assert rep.pi_x == 8
    assert rep.normalized == pytest.approx(6 / 8)
    lly = math.log(math.log(3))
    expect = rep.normalized * math.log(3) ** eta0() * math.sqrt(lly)
    assert rep.bound_ratio == pytest.approx(expect, rel=1e-14)


def test_shifted_divisor_count_matches_brute():
    for a, u, v, x, y in [(1, 1, -1, 20, 3), (1, 1, 1, 50, 4), (-1, 2, 1, 40, 3), (1, 1, -10, 30, 3)]:
        rep = sh.shifted_divisor_count(a, u, v, x, y)
        assert rep.count == _brute_shifted_divisor(a, u, v, x, y)


def test_shifted_divisor_count_thread_invariant():
    a = sh.shifted_divisor_count(1, 1, -1, 3000, 10, threads=1)
    b = sh.shifted_divisor_count(1, 1, -1, 3000, 10, threads=8)
    assert a.count == b.count


def test_shifted_divisor_count_input_errors():
    with pytest.raises(ValueError):
        sh.shifted_divisor_count(0, 1, 1, 20, 3)
    with pytest.raises(ValueError):
        sh.shifted_divisor_count(1, 0, 1, 20, 3)
    with pytest.raises(ValueError):
        sh.shifted_divisor_count(1, 1, 1, 2, 3)
    with pytest.raises(ValueError):
        sh.shifted_divisor_count(1, 1, 1, 20, 2)


def _sieved_values(top):
    """The n <= top that lambda_image_intersection finds in the image.

    With u = 1 and v = n - 2 the only prime p with p + v in [1, n] is 2, so
    the count is 1 exactly when n itself is a lambda value.
    """
    return [n for n in range(1, top + 1)
            if sh.lambda_image_intersection(1, n - 2, n) == (1, 1)]


def test_lambda_image_membership_small():
    want = [1, 2, 4, 6, 8, 10, 12, 16, 18, 20, 22, 24, 28, 30]
    assert _sieved_values(30) == want
    assert [n for n in range(1, 31) if olambda_value(n)] == want


def test_lambda_image_odd_and_validation():
    odd = [n for n in _sieved_values(101) if n % 2]
    assert odd == [1]
    for n in (1, 3, 5, 7, 9, 99, 101):
        assert olambda_value(n) == (n == 1)
    with pytest.raises(ValueError):
        sh.lambda_image_intersection(1, -2, 0)


def test_lambda_image_matches_exhaustive_image(t1e6):
    # the image restricted to [1, 300] is already realized by m <= 10**6
    lam = lambda_upto(10**6, t1e6.primes)
    image = [n for n in np.unique(lam[1:]).tolist() if n <= 300]
    assert _sieved_values(300) == image
    assert [n for n in range(1, 301) if olambda_value(n)] == image


def test_lambda_image_intersection_values():
    # only p = 2 is itself a lambda value
    assert sh.lambda_image_intersection(1, 0, 100) == (1, 25)
    # p - 1 is always attained (as the value at p), so the count is full
    assert sh.lambda_image_intersection(1, -1, 1000) == (168, 168)
    # 2p + 1 is odd and above 1, so never attained
    assert sh.lambda_image_intersection(2, 1, 100) == (0, 15)
    assert sh.lambda_image_intersection(1, 5, 6) == (0, 0)


def test_lambda_image_intersection_input_errors():
    with pytest.raises(ValueError):
        sh.lambda_image_intersection(0, 1, 100)
    with pytest.raises(ValueError):
        sh.lambda_image_intersection(1, 1, 0)


@pytest.mark.parametrize("a, u, v, x, y", [
    (-1, 1, -3, 60, 3), (-2, 2, -5, 80, 3), (-3, 3, -7, 90, 4), (1, 1, -5, 100, 3), (-1, 2, -9, 200, 5),
])
def test_shifted_divisor_count_skips_m_at_most_1(a, u, v, x, y):
    ps = [p for p in range(2, x + 1) if is_prime_slow(p)]
    assert any(abs(u * p + v) <= 1 for p in ps)
    rep = sh.shifted_divisor_count(a, u, v, x, y)
    assert rep.count == _brute_shifted_divisor(a, u, v, x, y)
    assert rep.pi_x == len(ps)


@pytest.mark.parametrize("u, v, x, want", [(1, 1, 102, (19, 26)), (2, 2, 28, (6, 6))])
def test_lambda_image_intersection_reaches_q_at_x_plus_1(u, v, x, want):
    # m = x is a value only through q = x + 1 = 103 or 29, one past max(p_hi, x)
    assert sh.lambda_image_intersection(u, v, x) == want


def test_lambda_image_intersection_sweep_x_plus_1_prime(t1e5):
    top = 4000
    value = [False] + [olambda_value(m) for m in range(1, top + 1)]
    ps = t1e5.primes[t1e5.primes <= top].tolist()
    xs = [q - 1 for q in ps if q - 1 < top]
    for u, v in [(1, 1), (1, 0), (2, 1), (2, 2), (1, -1)]:
        for x in xs:
            ms = [u * p + v for p in ps if 1 <= u * p + v <= x]
            want = (sum(value[m] for m in ms), len(ms))
            assert sh.lambda_image_intersection(u, v, x) == want, (u, v, x)


def test_lambda_and_spd_sieves_across_two_windows():
    x = 2**20 + 5000
    table = PrimeTable(x + 3)
    windows = bulk.window_ranges(1, x + 1)
    assert len(windows) == 2 and windows[0][1] == 2**20 + 1
    for v in (1, -1):
        counts = {sh.lambda_image_intersection(1, v, x, threads=t) for t in (1, 2)}
        assert len(counts) == 1
    for a, v in ((1, -1), (-1, 1)):
        counts = {sh.shifted_divisor_count(a, 1, v, x, 1000, threads=t).count
                  for t in (1, 2)}
        assert len(counts) == 1
    ds = table.primes - 1
    ds = ds[(ds > 1000) & (ds <= x + 1)]
    classes = sh._lambda_classes(table.primes, x)
    rng = np.random.default_rng(5)
    for lo, hi in windows:
        # both ends of each window, where a slipped offset lands, and a random sample
        ends = range(lo, min(lo + 150, hi)), range(max(lo, hi - 1100), hi)
        sample = [*ends[0], *ends[1], *rng.integers(lo, hi, 150).tolist()]
        lam = sh._lcm_window(lo, hi, classes, np.array(sample) - lo)
        marked = sh._divisor_marks(lo, hi, ds)
        for m in sample:
            assert (lam[m - lo] == m) == olambda_value(m), m
            divs = [1]
            for q, e in ofactor(m):
                divs = [d * q**i for d in divs for i in range(e + 1)]
            assert marked[m - lo] == any(d > 1000 and is_prime_slow(d + 1) for d in divs), m


def _brute_class_pass(lo, hi, cs):
    """For each m in [lo, hi): the lcm of the c in cs dividing m, and whether there is one."""
    lcms, hits = [], []
    for m in range(lo, hi):
        divs = cs[m % cs == 0].tolist()
        lcms.append(math.lcm(*divs))
        hits.append(bool(divs))
    return lcms, hits


@pytest.mark.parametrize("lo, hi, dtype", [
    (2**32 - 700, 2**32 + 700, np.int64),   # straddles 2**32: the accumulator is int64
    (2**32 - 1400, 2**32, np.uint32),       # ends at 2**32: the last uint32 window
])
def test_class_pass_at_2_32_matches_brute(lo, hi, dtype):
    # a synthetic class list: small c strided below the root 65536, and large c
    # that divide some m of the window (m // k) or none, up to and past hi
    rng = np.random.default_rng(32)
    ms = rng.integers(lo, hi, 60).tolist()
    big = [m // k for m in ms for k in range(2, 40) if m % k == 0 and m // k > 65536]
    cs = np.unique(np.array([2, 3, 4, 6, 10, 12, 97, 1000, 65535, 65536, *big, *ms,
                             *rng.integers(65537, hi + 10**6, 300).tolist()], dtype=np.int64))
    lcms, hits = _brute_class_pass(lo, hi, cs)
    every = np.arange(hi - lo)
    acc = sh._lcm_window(lo, hi, cs, every)
    assert acc.dtype == dtype
    assert acc.tolist() == lcms
    assert sh._divisor_marks(lo, hi, cs).tolist() == hits
    # with only some offsets wanted, those still hold the whole lcm
    at = np.array(ms) - lo
    assert sh._lcm_window(lo, hi, cs, at)[at].tolist() == [lcms[i] for i in at]


@pytest.mark.parametrize("group", [1, 7])
def test_class_batches_do_not_depend_on_group_size(group, t1e6, monkeypatch):
    # two narrow windows, one starting at 1, with classes on both sides of the root
    windows = [(1, 30001), (700000, 720000)]
    classes = sh._lambda_classes(t1e6.primes, 720000)
    ds = t1e6.primes[t1e6.primes > 100] - 1
    want = [(sh._lcm_window(lo, hi, classes, np.arange(hi - lo)), sh._divisor_marks(lo, hi, ds))
            for lo, hi in windows]
    monkeypatch.setattr(bulk, "CHUNK", group)
    for (lo, hi), (lam, marks) in zip(windows, want):
        assert np.array_equal(sh._lcm_window(lo, hi, classes, np.arange(hi - lo)), lam)
        assert np.array_equal(sh._divisor_marks(lo, hi, ds), marks)


def _set_dev(sieve, x, lam, E=ALL_PRIMES):
    """hist.deviation of omega over a set spec, on the one prime table the CLI builds
    for it; the CLI's dev row must print the same numbers."""
    ss = parse_set_spec(sieve, x)
    t = PrimeTable(ss.prime_limit(x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return deviation(weighted_histogram(ss.realize(x, t), one(), "omega", E, t), lam,
                         table=t)


def _cli_dev_row(argv):
    buf = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(buf):
        warnings.simplefilter("ignore")
        assert cli.dispatch(argv) == 0
    return buf.getvalue().splitlines()[1]


def _row(rep):
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in
                    (rep.x, rep.lam, rep.M, rep.mass_low, rep.mass_high, rep.normalized,
                     rep.gauss_ref))


def test_sp_dev_matches_brute():
    x, lam_t = 2000, 2.0
    rep = _set_dev("sp:1,-1", x, lam_t)
    members = [p - 1 for p in range(2, x + 2) if is_prime_slow(p) and 1 <= p - 1 <= x]
    M = sum(1 / p for p in range(2, x + 1) if is_prime_slow(p))
    t = lam_t * math.sqrt(M)
    low = sum(1 for n in members if len(ofactor(n)) <= M - t)
    high = sum(1 for n in members if len(ofactor(n)) >= M + t)
    assert rep.M == pytest.approx(M, rel=1e-12)
    assert rep.mass_low == low and rep.mass_high == high
    assert rep.normalized == pytest.approx((low + high) / len(members), rel=1e-12)
    sp_dev = ["sp-dev", "--a", "1", "--b", "-1", "--x", str(x), "--lambda", str(lam_t)]
    assert _cli_dev_row(sp_dev) == _row(rep)


def test_qf_dev_matches_brute():
    x, lam_t = 500, 1.0
    E = KroneckerSign(-4, 1)
    rep = _set_dev("qf:1,0,1", x, lam_t, E)
    from oracles import or_lattice

    members = [n for n in range(1, x + 1) if or_lattice(n) > 0]
    M = sum(1 / p for p in range(3, x + 1) if is_prime_slow(p) and p % 4 == 1)
    t = lam_t * math.sqrt(M)
    om = {n: sum(1 for p, _ in ofactor(n) if p % 4 == 1) for n in members}
    low = sum(1 for n in members if om[n] <= M - t)
    high = sum(1 for n in members if om[n] >= M + t)
    assert rep.mass_low == low and rep.mass_high == high
    assert rep.total == len(members)
    qf_dev = ["qf-dev", "--form", "1,0,1", "--x", str(x), "--lambda", str(lam_t)]
    assert _cli_dev_row(qf_dev) == _row(rep)


def test_qf_dev_rejects_primes_that_do_not_split(capsys, monkeypatch):
    # 3 is a prime of E = mod:4:3 and does not split for x^2 + y^2
    monkeypatch.setattr(sys, "argv", ["siftlab", "qf-dev", "--form", "1,0,1", "--e", "mod:4:3",
                                      "--x", "100", "--lambda", "1.0"])
    with pytest.raises(SystemExit) as ei:
        cli.main()
    assert ei.value.code == 2
    assert "prime 3 in E does not split" in capsys.readouterr().err


def test_qf_dev_shifted_set_is_smaller():
    E = KroneckerSign(-4, 1)
    base = _set_dev("qf:1,0,1", 300, 1.0, E)
    shifted = _set_dev("qf:1,0,1,shift=-1", 300, 1.0, E)
    assert shifted.total < base.total
    qf_dev = ["qf-dev", "--form", "1,0,1", "--x", "300", "--lambda", "1.0"]
    assert _cli_dev_row(qf_dev) == _row(base)
    assert _cli_dev_row(qf_dev + ["--shift", "-1"]) == _row(shifted)


def test_poly_values_and_degree():
    assert sh.poly_values((1, 2, 3), 2) == 17
    assert sh.poly_values((5,), 10) == 5
    assert sh.poly_values((0, 1), 7) == 7
    t = np.array([2, 10, 7, -3], dtype=np.int64)
    assert sh.poly_values((1, 2, 3), t).tolist() == [17, 321, 162, 22]
    assert sh.poly_values((5,), t).tolist() == [5] * 4
    assert sh.poly_degree((1, 2, 0)) == 1
    assert sh.poly_degree((0, 0, 4)) == 2
    assert sh.poly_degree((0,)) == -1


def test_joint_poly_omega_single():
    got = sh.joint_poly_omega([(1, 1)], 100, 97, (2,))
    expect = sum(
        1
        for p in range(4, 101)
        if is_prime_slow(p) and len(ofactor(p + 1)) == 2
    )
    assert got == expect == 16


def test_joint_poly_omega_pair():
    got = sh.joint_poly_omega([(-1, 1), (1, 1)], 100, 97, (2, 2))
    expect = sum(
        1
        for p in range(4, 101)
        if is_prime_slow(p)
        and len(ofactor(p - 1)) == 2
        and len(ofactor(p + 1)) == 2
    )
    assert got == expect == 9


def test_joint_poly_omega_totals_to_prime_count():
    x, y = 300, 200
    total = sum(
        sh.joint_poly_omega([(1, 1)], x, y, (k,)) for k in range(0, 26)
    )
    pis = bulk.primes_upto(x).size - bulk.primes_upto(x - y).size
    assert total == pis


def test_joint_poly_omega_unreachable_target():
    assert sh.joint_poly_omega([(1, 1)], 100, 97, (0,)) == 0


def test_joint_poly_omega_system_validation():
    with pytest.raises(ValueError):
        sh.joint_poly_omega([], 100, 50, ())
    with pytest.raises(ValueError):
        sh.joint_poly_omega([(1, 1), (1, 1)], 100, 50, (1, 1))
    with pytest.raises(ValueError):
        sh.joint_poly_omega([(5,)], 100, 50, (1,))
    with pytest.raises(ValueError):
        sh.joint_poly_omega([(1, 0, 0, 0, 1)], 100, 50, (1,))
    with pytest.raises(ValueError):
        sh.joint_poly_omega([(0, 1)], 100, 50, (1,))
    # degree >= 2 with a rational root
    with pytest.raises(ValueError):
        sh.joint_poly_omega([(-1, 0, 1)], 100, 50, (1,))
    # X^2 + X + 2 is always even
    with pytest.raises(ValueError):
        sh.joint_poly_omega([(2, 1, 1)], 100, 50, (1,))
    # p divides every coefficient, so every value, though p exceeds the degree + 1
    for polys, p in [([(7, 7)], 7), ([(1, 1), (5, 0, 5)], 5), ([(-21, 14)], 7)]:
        with pytest.raises(ValueError, match=f"the fixed prime factor {p}$"):
            sh.joint_poly_omega(polys, 1000, 900, (2,) * len(polys))
    with pytest.raises(ValueError):
        sh.joint_poly_omega([(1, 1)], 100, 50, (1, 2))
    with pytest.raises(ValueError):
        sh.joint_poly_omega([(1, 1)], 100, 101, (1,))
    with pytest.raises(ValueError):
        sh.joint_poly_omega([(1, 1)], 100, 2, (1,))


def test_joint_poly_omega_trailing_zeros_are_one_polynomial(capsys, monkeypatch):
    # X + 1 written twice, once with a zero X^2 coefficient
    with pytest.raises(ValueError, match="distinct"):
        sh.joint_poly_omega([(1, 1), (1, 1, 0)], 1000, 900, (2, 2))
    assert sh.joint_poly_omega([(1, 1, 0, 0)], 1000, 900, (2,)) == \
        sh.joint_poly_omega([(1, 1)], 1000, 900, (2,))
    monkeypatch.setattr(sys, "argv", ["siftlab", "jointpoly", "--q", "1,1", "--q", "1,1,0",
                                      "--x", "1000", "--y", "900", "--k", "2,2"])
    with pytest.raises(SystemExit) as ei:
        cli.main()
    assert ei.value.code == 2
    assert "distinct" in capsys.readouterr().err


# (polys, x, y, targets): degrees 1 to 3, negative leading coefficients, Q(7) = 0
# (never counted), |Q(p)| = 1 at p = 5 and 7 (omega 0), targets no prime reaches,
# y = 3, and ranges whose ends straddle 2**20
JOINT_SYSTEMS = [
    ([(1, 1)], 3000, 2000, (2,)),
    ([(-1, 1)], 3000, 2000, (3,)),
    ([(1, 1), (-1, 1)], 5000, 3000, (2, 2)),
    ([(1, 1), (-1, 1)], 100, 98, (1, 1)),
    ([(1, 2)], 4000, 1000, (1,)),
    ([(-1, 2)], 4000, 1000, (2,)),
    ([(5, -3)], 2000, 1500, (2,)),
    ([(1, 2), (-1, 2), (1, 1)], 3000, 2900, (2, 2, 2)),
    ([(1, 0, 1)], 2000, 1000, (2,)),
    ([(1, 1, 1)], 2000, 1500, (1,)),
    ([(3, 1, -1)], 2000, 1900, (2,)),
    ([(1, 1), (1, 0, 1)], 2000, 1900, (2, 2)),
    ([(2, 0, 0, 1)], 600, 500, (2,)),
    ([(1, 1, 0, 1)], 600, 590, (1,)),
    ([(1, 0, 0, -2)], 600, 500, (2,)),
    ([(1, 1, 0, 1), (1, 1)], 600, 500, (2, 2)),
    ([(-7, 1)], 20, 18, (1,)),
    ([(-7, 1)], 20, 18, (0,)),
    ([(-6, 1)], 10, 8, (0,)),
    ([(1, 1)], 1000, 900, (9,)),
    ([(1, 0, 1)], 1000, 900, (0,)),
    ([(1, 1)], 13, 3, (2,)),
    ([(1, 1)], 2**20 + 300, 600, (3,)),
    ([(1, 2), (-1, 2)], 2**20 + 1, 400, (3, 2)),
]


@pytest.mark.parametrize("polys, x, y, targets", JOINT_SYSTEMS)
def test_joint_poly_omega_against_oracle(polys, x, y, targets):
    want = ojoint_poly_omega(polys, x, y, targets)
    for threads in (1, 2):
        assert sh.joint_poly_omega(polys, x, y, targets, threads) == want


def test_joint_poly_omega_windows_add_up():
    # three windows of 2**20 over (100000, 2200000], cut at a point inside the second
    polys, x, y, k = [(-1, 2), (1, 1)], 2200000, 2100000, (2, 2)
    whole = [sh.joint_poly_omega(polys, x, y, k, threads) for threads in (1, 2)]
    cut = 1234567
    parts = (sh.joint_poly_omega(polys, x, x - cut, k)
             + sh.joint_poly_omega(polys, cut, cut - (x - y), k))
    assert whole == [parts, parts]


def test_trial_root_covers_values_and_flags():
    assert sh.trial_root([(1, 1)], 99) == 11                # isqrt(100) + 1
    assert sh.trial_root([(1, 1), (-3, 0, 2)], 10) == 15    # isqrt(203) + 1
    assert sh.trial_root([(5,)], 10**6) == 1000             # isqrt(x)


@pytest.mark.parametrize("q, root", [
    ((1, -3, 2), True),      # 2X^2 - 3X + 1 = (2X - 1)(X - 1)
    ((1, -5, 6), True),      # 6X^2 - 5X + 1 = (2X - 1)(3X - 1)
    ((-1, 0, 4), True),      # 4X^2 - 1, roots +-1/2
    ((-8, 0, 0, 27), True),  # 27X^3 - 8, root 2/3
    ((1, 0, 1), False),      # X^2 + 1
    ((-2, 0, 1), False),     # X^2 - 2
    ((2, 0, 0, 1), False),   # X^3 + 2
    ((-36, 0, 0, 1), False), # X^3 - 36: no divisor of 36 cubes to 36
])
def test_has_rational_root(q, root):
    assert sh._has_rational_root(q, len(q) - 1) is root


def test_has_rational_root_against_every_fraction():
    # every r/s with |r| <= |q(0)| and 1 <= s <= |leading|, divisors or not
    def brute(q):
        deg = len(q) - 1
        return any(sum(c * r**i * s ** (deg - i) for i, c in enumerate(q)) == 0
                   for r in range(-abs(q[0]), abs(q[0]) + 1) for s in range(1, abs(q[-1]) + 1))

    coeffs = range(-6, 7)
    for q in [(a, b, c) for a in coeffs for b in coeffs for c in coeffs if a and c] + \
             [(a, b, 0, d) for a in coeffs for b in (-1, 0, 2) for d in coeffs if a and d]:
        assert sh._has_rational_root(q, len(q) - 1) == brute(q), q


def test_joint_poly_omega_budget():
    with pytest.raises(ResourceBudgetError):
        sh.joint_poly_omega([(2, 0, 0, 1)], 10**6, 10, (1,))


def test_ap_prime_factor_count():
    got = sh.ap_prime_factor_count(100, 4, 1, "omega", 2)
    expect = sum(
        1 for n in range(1, 101) if n % 4 == 1 and len(ofactor(n)) == 2
    )
    assert got == expect == 9
    assert sh.ap_prime_factor_count(100, 3, 1, "omega", 2) == 16


def test_ap_prime_factor_count_partitions(t1e6):
    x, d, k = 500, 5, 2
    total = sum(
        sh.ap_prime_factor_count(x, d, a, "omega", k)
        for a in range(1, d)
    )
    expect = sum(
        1 for n in range(1, x + 1) if n % 5 != 0 and len(ofactor(n)) == k
    )
    assert total == expect


def test_ap_prime_factor_count_multiplicity(t1e6):
    got = sh.ap_prime_factor_count(100, 1, 0, "bigomega", 3)
    expect = sum(1 for n in range(1, 101) if sum(e for _, e in ofactor(n)) == 3)
    assert got == expect


@pytest.mark.parametrize("d, a", [(1, 0), (4, 3)])
def test_ap_prime_factor_count_brute(d, a):
    # d = 1 strides from n = 1 (a % d = 0 would otherwise start at n = 0)
    x = 300
    for g_kind in ("omega", "bigomega"):
        for k in range(5):
            expect = sum(
                1 for n in range(1, x + 1) if n % d == a % d and (
                    len(ofactor(n)) if g_kind == "omega"
                    else sum(e for _, e in ofactor(n))) == k
            )
            assert sh.ap_prime_factor_count(x, d, a, g_kind, k) == expect


def test_ap_prime_factor_count_input_errors(t1e6):
    with pytest.raises(ValueError):
        sh.ap_prime_factor_count(100, 4, 2, "omega", 1)
    with pytest.raises(ValueError):
        sh.ap_prime_factor_count(0, 4, 1, "omega", 1)
    with pytest.raises(ValueError):
        sh.ap_prime_factor_count(100, 4, 1, "tau", 1)
