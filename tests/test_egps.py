"""Aliquot sums and prime-factor statistics of s(n) = sigma(n) - n."""

import math
import threading
import time
from math import isqrt

import numpy as np
import pytest

from siftlab import bulk, cli, egps, multfunc
from siftlab.multfunc import mu_sq, one, z_omega

from oracles import ofactor, osieve, osigma


def _aliquot(n):
    return osigma(n) - n


def _omega(n):
    return len(ofactor(n))


def _weight(f, n):
    return math.prod(f.rule(p, e) for p, e in ofactor(n))


def _aliquot_window(lo, hi):
    """s(n) for n in [lo, hi) as the egps paths compute it: sigma_window minus n."""
    return bulk.sigma_window(lo, hi) - np.arange(lo, hi)


def test_aliquot_window_values():
    s = _aliquot_window(1, 30)
    assert int(s[12 - 1]) == 16
    assert int(s[2 - 1]) == 1
    assert int(s[1 - 1]) == 0
    assert int(s[6 - 1]) == 6
    assert int(s[28 - 1]) == 28
    for n in range(1, 30):
        assert int(s[n - 1]) == _aliquot(n)


def test_aliquot_window_high_range():
    lo = 10**8
    s = _aliquot_window(lo, lo + 120)
    for n in range(lo, lo + 120, 17):
        parts = ofactor(n)
        sig = 1
        for p, e in parts:
            sig *= (p ** (e + 1) - 1) // (p - 1)
        assert int(s[n - lo]) == sig - n


def test_aliquot_window_input_errors():
    with pytest.raises(ValueError):
        _aliquot_window(0, 10)
    with pytest.raises(ValueError):
        _aliquot_window(10, 10)


def test_egps_deviation_matches_brute():
    x, lam = 100, 1.0
    rep = egps.egps_deviation(x, one(), lam=lam)
    llx = math.log(math.log(x))
    thr = lam * math.sqrt(llx)
    expect = sum(
        1 for n in range(2, x + 1) if abs(_omega(_aliquot(n)) - llx) >= thr
    )
    assert rep.mass == expect == 31
    assert rep.total == 100.0
    assert rep.normalized == pytest.approx(0.31)
    assert rep.loglog == pytest.approx(llx)
    assert rep.excluded == 1 and rep.unfactored == 0
    # primes (s(n) = 1, omega 0) fill the low tail
    assert rep.k_low == math.floor(llx - thr) == 0
    assert rep.k_high == math.ceil(llx + thr) == 3


def test_egps_deviation_weighted():
    x, lam = 100, 1.0
    f = z_omega(2)
    rep = egps.egps_deviation(x, f, lam=lam)
    llx = math.log(math.log(x))
    thr = lam * math.sqrt(llx)
    mass = sum(
        2.0 ** _omega(n)
        for n in range(2, x + 1)
        if abs(_omega(_aliquot(n)) - llx) >= thr
    )
    total = sum(2.0 ** _omega(n) for n in range(1, x + 1))
    assert rep.mass == pytest.approx(mass, rel=1e-12)
    assert rep.total == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("f", [one(), mu_sq(), z_omega(1.3)], ids=lambda f: f.spec)
def test_egps_grid_matches_per_n_masks(f):
    x = 3000
    rep = egps.egps_deviation(x, f, lam=3.0)
    llx = math.log(math.log(x))
    om = {n: _omega(_aliquot(n)) for n in range(2, x + 1)}
    fv = {n: _weight(f, n) for n in range(1, x + 1)}
    # lam = 3 puts k_low below zero (an empty low tail) and k_high above
    # every omega(s(n)) that occurs, so the whole grid point is empty
    assert rep.k_low == -3 and rep.k_high > max(om.values())
    rel = 1e-12 if f.spec == "zomega:1.3" else 0.0  # one and musq are exact
    total = sum(fv.values())
    assert rep.total == pytest.approx(total, rel=rel, abs=0.0)
    assert rep.mass == 0.0
    for lam, norm in rep.grid:
        thr = lam * math.sqrt(llx)
        mass = sum(fv[n] for n in om if abs(om[n] - llx) >= thr)
        assert norm == pytest.approx(mass / total, rel=rel, abs=0.0)
    assert [lam for lam, _ in rep.grid] == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


X_THREE_WINDOWS = 3 * bulk.DEFAULT_WINDOW + 5


def _bins_of(monkeypatch, **kwargs):
    """egps_deviation's report and the bins it read the report off."""
    got = []
    real = egps.weighted_bins

    def keep(*args, **kw):
        got.append(real(*args, **kw))
        return got[-1]

    monkeypatch.setattr(egps, "weighted_bins", keep)
    rep = egps.egps_deviation(X_THREE_WINDOWS, lam=2.0, **kwargs)
    return rep, got[-1]


@pytest.mark.parametrize("f", [one(), z_omega(1.3)], ids=lambda f: f.spec)
def test_egps_same_bytes_for_any_thread_count(f, monkeypatch):
    # four n-windows, and omega table windows claimed by whichever thread gets there first
    rep1, bins1 = _bins_of(monkeypatch, f=f, threads=1)
    for threads in (2, 8):
        rep, bins = _bins_of(monkeypatch, f=f, threads=threads)
        assert rep == rep1
        assert bins.tobytes() == bins1.tobytes()
    if f.is_one():  # the bins of one arrays over [0, x] and [0, max s(n)]
        s = bulk.sigma_range(X_THREE_WINDOWS) - np.arange(X_THREE_WINDOWS + 1)
        om = bulk.counts_range(int(s.max()), bulk.primes_upto(isqrt(int(s.max()))))
        assert bins1.tolist() == np.bincount(om[s[2:]]).tolist()
        assert bins1[0] == int(np.count_nonzero(osieve(X_THREE_WINDOWS)))


SIGMA_FAMILY = [["sigma-div", "--p", "5"], ["s-div", "--y", "1000", "--z", "10", "--d", "3"],
                ["omega-gcd"], ["egps", "--lambda", "2.0"]]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv", SIGMA_FAMILY, ids=[a[0] for a in SIGMA_FAMILY])
def test_sigma_family_builds_no_weight_array(argv, threads, monkeypatch, capsys):
    # each of three n-windows computes its own weights; none comes from an array of length x
    def no_array(*args, **kwargs):
        raise AssertionError("weight array of length x built")

    monkeypatch.setattr(multfunc, "values_upto", no_array)
    monkeypatch.setattr(bulk, "mult_range", no_array)
    run = [*argv, "--f", "phioverN", "--x", "2200000", "--threads", threads]
    assert cli.dispatch(run) == 0
    assert len(capsys.readouterr().out.splitlines()) >= 2


def test_egps_fill_error_raises_without_hanging(monkeypatch):
    # one omega-table window fails slowly while the other worker waits on it
    real = bulk.counts_window

    def failing(lo, hi, *args, **kwargs):
        if lo == 3 * bulk.DEFAULT_WINDOW:
            time.sleep(0.3)
            raise ArithmeticError("forced fill failure")
        return real(lo, hi, *args, **kwargs)

    monkeypatch.setattr(bulk, "counts_window", failing)
    errors = []

    def run():
        try:
            egps.egps_deviation(X_THREE_WINDOWS, one(), lam=2.0, threads=2)
        except ArithmeticError as exc:
            errors.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(120)
    assert not worker.is_alive()
    assert len(errors) == 1 and "forced" in str(errors[0])


def test_weighted_sigma_masses_match_oracle_sums():
    x, f = 600, z_omega(1.3)
    sig = {n: osigma(n) for n in range(1, x + 1)}
    fv = {n: _weight(f, n) for n in range(1, x + 1)}
    got = egps.count_p_divides_sigma(x, 3, f).value
    assert got == pytest.approx(sum(fv[n] for n in sig if sig[n] % 3 == 0), rel=1e-12)
    got = egps.count_d_divides_s(x, 20, 10, 5, f)
    expect = sum(fv[n] for n in range(2, x + 1)
                 if ofactor(n)[-1][0] > 20 and ofactor(n)[-1][1] == 1
                 and (sig[n] - n) % 5 == 0)
    assert got == pytest.approx(expect, rel=1e-12)
    got = egps.mean_omega_gcd_sigma(x, f).value
    expect = sum(_omega(math.gcd(sig[n], n)) * fv[n] for n in sig)
    assert got == pytest.approx(expect, rel=1e-12)


def test_egps_deviation_grid_is_nonincreasing():
    rep = egps.egps_deviation(10**4, one(), lam=1.0)
    vals = [v for _, v in rep.grid]
    assert len(vals) == 6
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    by_g = dict(rep.grid)
    assert by_g[1.0] == pytest.approx(rep.normalized)


def test_egps_deviation_tiny_threshold():
    rep = egps.egps_deviation(100, one(), lam=1e-9)
    # every n >= 2 deviates, n = 1 stays only in the normalization
    assert rep.normalized == pytest.approx(99 / 100)


def test_egps_deviation_fourth_log_calibration():
    x = 5_000_000
    c0 = 1.0
    rep = egps.egps_deviation(x, one(), c0=c0)
    llx = math.log(math.log(x))
    expect_lam = c0 * math.sqrt(math.log(math.log(llx)))
    assert rep.lam == pytest.approx(expect_lam, rel=1e-12)
    direct = egps.egps_deviation(x, one(), lam=rep.lam)
    assert direct.mass == rep.mass


def test_egps_deviation_input_errors():
    with pytest.raises(ValueError):
        egps.egps_deviation(15, one(), lam=1.0)
    with pytest.raises(ValueError):
        egps.egps_deviation(100, one())
    with pytest.raises(ValueError):
        egps.egps_deviation(100, one(), lam=1.0, c0=1.0)
    with pytest.raises(ValueError):
        egps.egps_deviation(100, one(), lam=-2.0)
    # the fourth logarithm is not positive this low
    with pytest.raises(ValueError):
        egps.egps_deviation(10**4, one(), c0=1.0)
    # lam is checked before any sieving; at 10^7 the fourth logarithm is positive,
    # so c0 reaches lam = c0 * sqrt(log log log log x)
    for lam, c0 in ((math.inf, None), (math.nan, None), (None, math.inf), (None, math.nan),
                    (None, -1.0)):
        with pytest.raises(ValueError, match="^lam must be positive and finite"):
            egps.egps_deviation(10**7, one(), lam=lam, c0=c0)


def test_count_p_divides_sigma():
    rep = egps.count_p_divides_sigma(100, 3, one())
    expect = sum(1 for n in range(1, 101) if osigma(n) % 3 == 0)
    assert rep.value == expect == 65
    assert rep.ratio == pytest.approx(rep.value / rep.bound)


def test_count_p_divides_sigma_bound_shape():
    x, p, eps = 10**4, 7, 0.5
    rep = egps.count_p_divides_sigma(x, p, one(), eps=eps)
    from siftlab.multfunc import mertens_sum

    m = mertens_sum(one(), x)
    expect = (
        (p ** (-(1.0 - eps) / 2.0) + math.log(math.log(x)) / p)
        * x / math.log(x) * math.exp(m)
    )
    assert rep.bound == pytest.approx(expect, rel=1e-12)


def test_count_p_divides_sigma_unreachable_prime():
    rep = egps.count_p_divides_sigma(10, 97, one())
    assert rep.value == 0.0


def test_count_p_divides_sigma_double_count_consistency(t1e5):
    x = 10**4
    total = sum(
        egps.count_p_divides_sigma(x, int(p), one()).value
        for p in t1e5.primes[t1e5.primes <= 50]
    )
    expect = 0
    for n in range(1, x + 1):
        expect += sum(1 for q, _ in ofactor(osigma(n)) if q <= 50)
    assert total == expect


def test_count_p_divides_sigma_input_errors():
    with pytest.raises(ValueError):
        egps.count_p_divides_sigma(2, 3, one())
    with pytest.raises(ValueError):
        egps.count_p_divides_sigma(100, 4, one())
    with pytest.raises(ValueError):
        egps.count_p_divides_sigma(100, 3, one(), eps=1.0)
    with pytest.raises(ValueError):
        egps.count_p_divides_sigma(100, 3, one(), eps=0.0)


def test_count_d_divides_s_matches_brute():
    got = egps.count_d_divides_s(200, 20, 10, 5, one())
    expect = 0
    for n in range(2, 201):
        parts = ofactor(n)
        big_p, e = parts[-1]
        if big_p > 20 and e == 1 and _aliquot(n) % 5 == 0:
            expect += 1
    assert got == expect == 11


def test_count_d_divides_s_trivial_modulus():
    # d = 1 keeps every rough, unsquared survivor
    full = egps.count_d_divides_s(300, 15, 1, 1, one())
    expect = sum(
        1
        for n in range(2, 301)
        if ofactor(n)[-1][0] > 15 and ofactor(n)[-1][1] == 1
    )
    assert full == expect
    assert egps.count_d_divides_s(300, 15, 5, 5, one()) <= full


def test_count_d_divides_s_weighted():
    got = egps.count_d_divides_s(200, 20, 10, 5, z_omega(2))
    expect = 0.0
    for n in range(2, 201):
        parts = ofactor(n)
        if parts[-1][0] > 20 and parts[-1][1] == 1 and _aliquot(n) % 5 == 0:
            expect += 2.0 ** len(parts)
    assert got == pytest.approx(expect, rel=1e-12)


def test_count_d_divides_s_input_errors():
    with pytest.raises(ValueError):
        egps.count_d_divides_s(2, 2, 1, 1, one())
    with pytest.raises(ValueError):
        egps.count_d_divides_s(100, 20, 10, 0, one())
    with pytest.raises(ValueError):
        egps.count_d_divides_s(100, 20, 30, 5, one())
    with pytest.raises(ValueError):
        egps.count_d_divides_s(100, 200, 10, 5, one())


def test_mean_omega_gcd_sigma():
    rep = egps.mean_omega_gcd_sigma(2000, one())
    expect = 0
    for n in range(1, 2001):
        g = math.gcd(osigma(n), n)
        expect += _omega(g) if g > 1 else 0
    assert rep.value == expect == 1643
    # the slow-growth reference needs a fourth logarithm, absent this low
    assert rep.bound is None and rep.ratio is None


def test_mean_omega_gcd_sigma_pointwise():
    # primes contribute nothing; n = 6 contributes omega(6) = 2
    one_rep = egps.mean_omega_gcd_sigma(6, one())
    by_hand = [0, 0, 0, 0, 0, 2]  # n = 1..6
    assert one_rep.value == sum(by_hand)
    with pytest.raises(ValueError):
        egps.mean_omega_gcd_sigma(2, one())
