"""End-to-end acceptance checks.

Each test prints exactly one PASS or FAIL line; run with -s to see them:

    pytest tests/test_acceptance.py -s
"""

import math
import time

import numpy as np
import pytest

from siftlab import arith, bulk, cli, egps, hist, multfunc, shifted, table
from siftlab.arith import PrimeTable
from siftlab.sift import everything

from conftest import lambda_upto
from oracles import olambda_value, omax_order


@pytest.fixture(scope="module")
def t1e7():
    return PrimeTable(10**7)


def _line(num: int, slug: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} check {num} ({slug}): {detail}", flush=True)
    assert ok, f"check {num} ({slug}): {detail}"


def _oracle_spf(limit: int) -> list:
    spf = list(range(limit + 1))
    i = 2
    while i * i <= limit:
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    return spf


def _oracle_stats(n: int, spf: list):
    m = n
    fac = []
    while m > 1:
        p = spf[m]
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        fac.append((p, e))
    sig, ph, mu, lam = 1, 1, 1, 1
    for p, e in fac:
        sig *= (p ** (e + 1) - 1) // (p - 1)
        ph *= (p - 1) * p ** (e - 1)
        mu = 0 if e > 1 else -mu
        if p == 2:
            lpe = 1 if e == 1 else (2 if e == 2 else 1 << (e - 2))
        else:
            lpe = (p - 1) * p ** (e - 1)
        lam = math.lcm(lam, lpe)
    om = len(fac)
    bo = sum(e for _, e in fac)
    return tuple(fac), om, bo, sig, sig - n, ph, lam, mu


def test_check_01_arithmetic_oracle_suite(t1e5):
    # the factorization by trial division over a table, everything else from
    # the window kernels the CLI runs: phi as a mult rule, mu as musq * (-1)**omega
    start = time.monotonic()
    x = 10**5
    spf = _oracle_spf(x)
    root = PrimeTable(math.isqrt(x))
    musq = multfunc.builtin("musq")
    om_a = bulk.counts_range(x, t1e5.primes, "omega")
    bo_a = bulk.counts_range(x, t1e5.primes, "bigomega")
    sig_a = bulk.sigma_range(x)
    s_a = sig_a - np.arange(x + 1)
    ph_a = bulk.mult_range(x, t1e5.primes, lambda p, e: p ** (e - 1) * (p - 1),
                           lambda q: q - 1.0)
    mu_a = bulk.mult_range(x, t1e5.primes, musq.rule, musq.window_primes())
    mu_a *= np.where(om_a % 2 == 1, -1.0, 1.0)
    lam_a = lambda_upto(x, t1e5.primes)
    got = np.stack([om_a, bo_a, sig_a, s_a, ph_a, lam_a, mu_a], axis=1).tolist()
    mism = 0
    for n in range(1, x + 1):
        parts, *want = _oracle_stats(n, spf)
        if arith.factorize(n, root).parts != parts or got[n] != want:
            mism += 1
    dt = time.monotonic() - start
    ok = mism == 0 and dt < 10.0
    _line(1, "arithmetic oracle suite", ok,
          f"{mism} mismatches on n <= {x} in {dt:.1f}s (limit 10s)")


def test_check_02_max_order_oracle(t1e5):
    start = time.monotonic()
    x = 10**4
    lam_a = lambda_upto(x, t1e5.primes)
    mism = sum(1 for n in range(1, x + 1) if int(lam_a[n]) != omax_order(n))
    dt = time.monotonic() - start
    ok = mism == 0 and dt < 30.0
    _line(2, "max multiplicative order", ok,
          f"{mism} mismatches on n <= {x} in {dt:.1f}s (limit 30s)")


def test_check_03_bound_ratio_stability(t1e7):
    start = time.monotonic()
    f = multfunc.one()
    maxima = []
    for x in (10**5, 10**6, 10**7):
        h = hist.weighted_histogram(everything(x), f, "omega", table=t1e7, threads=8)
        rep = hist.hr_ratio(h, table=t1e7)
        k_hi = int(2 * math.log(math.log(x)))
        maxima.append(max(rep.general[k] for k in range(1, k_hi + 1)))
    spread = max(maxima) / min(maxima)
    dt = time.monotonic() - start
    ok = spread <= 3.0 and dt < 120.0
    _line(3, "factorial-decay bound stability", ok,
          "max ratios " + "/".join(f"{m:.6f}" for m in maxima)
          + f", spread x{spread:.3f} (allowed x3) in {dt:.1f}s")


def test_check_04_table_counts():
    seen = set()
    mism = 0
    for N in range(1, 301):
        for j in range(1, N + 1):
            seen.add(N * j)
        if table.table_count(N) != (len(seen), None):
            mism += 1
    fr3 = table.ford_ratio(10**3, table.table_count(10**3)[0])
    fr4 = table.ford_ratio(10**4, table.table_count(10**4, threads=8)[0])
    spread = max(fr3, fr4) / min(fr3, fr4)
    eta_err = abs(table.eta0() - 0.0860713)
    ok = mism == 0 and spread <= 2.0 and eta_err < 5e-7
    _line(4, "multiplication-table counts", ok,
          f"{mism} mismatches on N <= 300; density ratios {fr3:.6f}/{fr4:.6f}"
          f" spread x{spread:.3f} (allowed x2); eta0 err {eta_err:.1e}")


def test_check_05_sifted_table_shape():
    f = multfunc.one()
    vals = []
    for x in (10**4, 10**6):
        t = PrimeTable(x)
        rep = table.sifted_table_sum(everything(x), f, t, threads=8)
        denom = (x * math.exp((1.0 - hist.q_rate(1.0 / rep.R)) * rep.M)
                 / (math.log(x) * math.sqrt(rep.M)))
        vals.append(rep.value / denom)
    spread = max(vals) / min(vals)
    ok = spread <= 5.0
    _line(5, "sifted table-sum shape", ok,
          "ratios " + "/".join(f"{v:.6f}" for v in vals)
          + f", spread x{spread:.3f} (allowed x5)")


def test_check_06_shifted_prime_divisors():
    start = time.monotonic()
    small = shifted.shifted_divisor_count(1, 1, -1, 20, 3)
    ra = shifted.shifted_divisor_count(1, 1, -1, 10**6, 10**3, threads=8)
    rb = shifted.shifted_divisor_count(1, 1, -1, 10**6, 10**4, threads=8)
    spread = max(ra.bound_ratio, rb.bound_ratio) / min(ra.bound_ratio, rb.bound_ratio)
    dt = time.monotonic() - start
    ok = (small.count == 6 and spread <= 3.0 and ra.count >= rb.count
          and dt < 300.0)
    _line(6, "shifted-prime divisor counts", ok,
          f"fixture count {small.count} (want 6); bound ratios "
          f"{ra.bound_ratio:.5f}/{rb.bound_ratio:.5f} spread x{spread:.3f}"
          f" (allowed x3); counts {ra.count}>={rb.count}; {dt:.0f}s")


def test_check_07_lambda_image(t1e7):
    start = time.monotonic()
    arr = lambda_upto(10**7, t1e7.primes, threads=8)
    image = np.unique(arr[1:])
    small = frozenset(int(v) for v in image[image <= 2000])
    del arr
    mism = 0
    for n in range(1, 2001):
        # the only prime p with p + n - 2 in [1, n] is 2, so the count is 1 iff n is a value
        sieved = shifted.lambda_image_intersection(1, n - 2, n) == (1, 1)
        mism += not olambda_value(n) == sieved == (n in small)
    c_neg, p_neg = shifted.lambda_image_intersection(1, -1, 10**6, threads=8)
    c_pos, p_pos = shifted.lambda_image_intersection(1, 1, 10**6, threads=8)
    frac_neg = c_neg / p_neg
    frac_pos = c_pos / p_pos
    dt = time.monotonic() - start
    ok = (mism == 0 and 0.3 <= frac_neg <= 1.5 and frac_pos < frac_neg
          and dt < 300.0)
    _line(7, "lambda value image", ok,
          f"{mism} mismatches on [1,2000]; shifted fractions"
          f" {frac_neg:.5f} (in [0.3,1.5]) vs {frac_pos:.5f} (smaller); {dt:.0f}s")


def test_check_08_aliquot_omega_deviation(t1e7):
    # At fixed lam the tail condition on the integer omega is a step in x,
    # so the raw mass is a sawtooth for omega(n) itself (0.000250 ->
    # 0.002293 -> 0.000172 for f = 1). Compare omega(s(n)) with omega(n)
    # over the same n <= x, weight, center and integer cutoffs instead.
    start = time.monotonic()
    seqs, refs, ratios, scales = {}, {}, {}, {}
    for label, f in (("one", multfunc.one()), ("zomega:1.2", multfunc.z_omega(1.2))):
        seqs[label], refs[label], ratios[label], scales[label] = [], [], [], []
        for x in (10**5, 10**6, 10**7):
            rep = egps.egps_deviation(x, f, lam=2.0, threads=8)
            h = hist.weighted_histogram(everything(x), f, "omega", table=t1e7)
            ref = h.mass_low(rep.k_low) + h.mass_high(rep.k_high)
            if rep.k_low >= 0:
                ref -= 1.0  # n = 1: omega 0, f(1) = 1
            seqs[label].append(rep.normalized)
            refs[label].append(ref)
            ratios[label].append(rep.mass / ref if ref > 0 else math.inf)
            scales[label].append(
                f"1e{round(math.log10(x))} k<={rep.k_low}|k>={rep.k_high}"
                f" {rep.normalized:.6f}/{ref / rep.total:.6f}={ratios[label][-1]:.3f}"
            )

    def noninc(seq):
        return all(seq[i + 1] <= seq[i] * 1.3 for i in range(len(seq) - 1))

    ref_positive = all(r > 0 for seq in refs.values() for r in seq)
    tail_small = seqs["one"][2] < 0.25
    dt = time.monotonic() - start
    ok = (ref_positive and noninc(ratios["one"]) and tail_small
          and noninc(ratios["zomega:1.2"]) and dt < 600.0)
    detail = "; ".join(
        f"{lbl}: omega(s(n))/omega(n) " + " -> ".join(scales[lbl])
        + (" nonincreasing" if noninc(ratios[lbl]) else " NOT nonincreasing (30% noise)")
        for lbl in ratios
    )
    _line(8, "aliquot omega deviation", ok,
          detail + f"; reference masses positive: {ref_positive}"
          f"; tail {seqs['one'][2]:.6f} < 0.25: {tail_small}; {dt:.0f}s")


def test_check_09_generating_function_identity(t1e5):
    # mgf reads the histogram's bins; the reference sums f(n) z**omega(n) per n
    x = 10**5
    sset = everything(x)
    om = bulk.counts_range(x, t1e5.primes, "omega")[sset.window(0, x + 1)]
    worst = 0.0
    exact_total = True
    for f in (multfunc.one(), multfunc.mu_sq()):
        h = hist.weighted_histogram(sset, f, "omega", table=t1e5)
        fv = multfunc.values_upto(f, x, t1e5)[sset.window(0, x + 1)]
        for z in (0.5, 1.0, 1.5):
            rep = hist.mgf_sum(h, z, table=t1e5)
            brute = float(np.sum(fv * np.power(z, om, dtype=np.float64)))
            worst = max(worst, abs(rep.value - brute) / brute)
            if z == 1.0 and not rep.value == brute == h.total:
                exact_total = False
    ok = worst <= 1e-9 and exact_total
    _line(9, "moment generating identity", ok,
          f"worst relative gap {worst:.2e} (allowed 1e-9);"
          f" z=1 totals exact: {exact_total}")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_check_10_cli_determinism(capsys):
    runs = [
        ["primes", "--x", "1000"],
        ["hist", "--x", "10000"],
        ["hr-check", "--x", "10000"],
        ["mgf", "--x", "10000", "--z", "1.5"],
        ["tails", "--x", "10000", "--delta", "0.5"],
        ["dev", "--x", "20000", "--lambda", "2.0"],
        ["table", "--n", "2000"],
        ["table-sifted", "--x", "10000"],
        ["spd", "--a", "1", "--u", "1", "--v", "-1", "--x", "3000", "--y", "10"],
        ["lambda-image", "--u", "1", "--v", "0", "--x", "2000"],
        ["sp-dev", "--a", "1", "--b", "1", "--x", "10000", "--lambda", "0.5"],
        ["qf-dev", "--form", "1,0,1", "--e", "kron:-4:+1", "--x", "2000",
         "--lambda", "0.4"],
        ["jointpoly", "--q", "1,1", "--x", "1000", "--y", "500", "--k", "2"],
        ["apcount", "--x", "2000", "--d", "4", "--a", "1", "--k", "2"],
        ["egps", "--x", "2000", "--lambda", "1.0"],
        ["sigma-div", "--x", "2000", "--p", "3"],
        ["s-div", "--x", "2000", "--y", "100", "--z", "50", "--d", "5"],
        ["omega-gcd", "--x", "2000"],
        ["constants", "--x", "2000"],
    ]
    unequal = []
    for argv in runs:
        outs = []
        for threads in ("1", "8"):
            cli.dispatch(argv + ["--threads", threads])
            outs.append(capsys.readouterr().out)
        if outs[0] != outs[1]:
            unequal.append(argv[0])
    ok = not unequal
    _line(10, "thread determinism", ok,
          f"{len(runs)} subcommands byte-identical between --threads 1 and 8"
          + (f"; differing: {unequal}" if unequal else ""))
