"""Exact arithmetic: prime tables, factor windows, and the classical functions.

sigma, phi, mu, lambda and the factor counts come from the window kernels
the CLI runs (bulk), each checked against an independent pure-python
oracle before any frozen value is trusted.
"""

import numpy as np
import pytest

from siftlab import arith, bulk
from siftlab.primesets import ResidueClasses
from siftlab.specs import parse_weight

from oracles import ofactor, olam, olegendre, omu, ophi, osieve, osigma

# phi, rad and the square-full part as mult_window rules: (rule, f at the primes)
PHI = (lambda p, e: p ** (e - 1) * (p - 1), lambda q: q - 1.0)
RAD = (lambda p, e: p, lambda q: q.astype(np.float64))
SQUAREFULL = (lambda p, e: p**e if e >= 2 else 1, 1.0)


def _classical(lo, hi, table):
    """Each classical function on [lo, hi) from the kernels, as an int64 array."""
    musq = parse_weight("musq")
    mult = lambda rule, at: bulk.mult_window(lo, hi, table.primes, rule, at).astype(np.int64)
    om = bulk.counts_window(lo, hi, table.primes, "omega").astype(np.int64)
    sig = bulk.sigma_window(lo, hi)
    return {
        "omega": om,
        "bigomega": bulk.counts_window(lo, hi, table.primes, "bigomega").astype(np.int64),
        "sigma": sig,
        "s": sig - np.arange(lo, hi),
        "phi": mult(*PHI),
        "mu": mult(musq.rule, musq.window_primes()) * (1 - 2 * (om % 2)),  # musq * (-1)**omega
        "rad": mult(*RAD),
        "squarefull": mult(*SQUAREFULL),
        "lambda": bulk.lambda_window(lo, hi, table.primes),
    }


def _at(values, lo, n):
    return {k: int(v[n - lo]) for k, v in values.items()}


def test_prime_table_counts(t1e6):
    assert t1e6.pi() == 78498
    assert t1e6.pi(10**6) == 78498
    assert t1e6.pi(100) == 25
    assert t1e6.pi(2) == 1
    assert t1e6.pi(1) == 0
    assert len(t1e6) == 78498


def test_prime_table_membership(t1e5):
    assert 2 in t1e5
    assert 99991 in t1e5
    assert 1 not in t1e5
    assert 0 not in t1e5
    assert 99993 not in t1e5
    # out of range is just absent, not an error
    assert 10**6 not in t1e5


def test_prime_table_rejects_tiny_limit():
    with pytest.raises(ValueError):
        arith.PrimeTable(1)
    with pytest.raises(ValueError):
        arith.PrimeTable(-5)


def test_prime_table_limit_two():
    t = arith.PrimeTable(2)
    assert t.pi() == 1
    assert 2 in t


def test_prime_table_matches_slow_sieve(t1e5):
    flags = bytearray([1]) * 1001
    flags[0] = flags[1] = 0
    for p in range(2, 32):
        if flags[p]:
            for m in range(p * p, 1001, p):
                flags[m] = 0
    small = [n for n in range(1001) if flags[n]]
    assert t1e5.primes[: len(small)].tolist() == small


@pytest.mark.parametrize("n", [2, 3, 2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 17])
def test_prime_table_segments_match_sieve_flags(n):
    # the table sieves DEFAULT_WINDOW segments into one buffer and keeps no flags
    flags = osieve(n)
    t = arith.PrimeTable(n)
    assert not hasattr(t, "flags")
    assert t.primes.dtype == np.int64
    assert np.array_equal(t.primes, np.flatnonzero(flags))
    for m in [-1, *range(min(n, 5000) + 1), n, n + 1]:
        assert (m in t) == (0 <= m <= n and bool(flags[m])), m


def test_prime_count_bound_covers_every_prime_count():
    # the table's buffer holds prime_count_bound(y) primes, so it must never fall short
    y = np.arange(2**20 + 1)
    pi = np.cumsum(osieve(2**20))
    bound = np.array([bulk.prime_count_bound(int(v)) for v in y])
    assert (pi <= bound).all()
    assert bulk.prime_count_bound(1) == 0 and bulk.prime_count_bound(2) == 3


def test_factor_window_spf_values(t1e5):
    w = arith.FactorWindow(10, 14, t1e5)
    assert w.spf.tolist() == [2, 11, 2, 13]
    assert w.spf_of(12) == 2
    assert w.spf_of(13) == 13


def test_factor_window_bounds_errors(t1e5):
    with pytest.raises(ValueError):
        arith.FactorWindow(5, 5, t1e5)
    with pytest.raises(ValueError):
        arith.FactorWindow(0, 10, t1e5)
    small = arith.PrimeTable(7)
    with pytest.raises(ValueError):
        arith.FactorWindow(2, 100, small)
    w = arith.FactorWindow(10, 14, t1e5)
    with pytest.raises(ValueError):
        w.spf_of(14)
    with pytest.raises(ValueError):
        w.factorize(9)


def test_factorize_known_values(t1e5):
    f = arith.factorize(4704, t1e5)
    assert f.parts == ((2, 5), (3, 1), (7, 2))
    assert f.primes() == (2, 3, 7)
    assert arith.factorize(1, t1e5).parts == ()
    assert arith.factorize(2, t1e5).parts == ((2, 1),)


def test_factorize_against_trial_division_oracle(t1e5):
    w = arith.FactorWindow(1, 10001, t1e5)
    for n in range(1, 10001):
        expect = tuple(ofactor(n))
        assert w.factorize(n).parts == expect
        if n <= 2000:
            assert arith.factorize(n, t1e5).parts == expect


def test_factor_window_cofactor_fallback(t1e5):
    # window starts above 1, so repeated division drops below lo
    w = arith.FactorWindow(50, 100, t1e5)
    assert w.factorize(96).parts == ((2, 5), (3, 1))
    assert w.factorize(97).parts == ((97, 1),)
    assert w.factorize(90).parts == ((2, 1), (3, 2), (5, 1))


def test_factor_window_high_range_matches_trial(t1e6):
    lo = 10**6
    w = arith.FactorWindow(lo, lo + 4096, t1e6)
    for n in range(lo, lo + 4096, 97):
        assert w.factorize(n).parts == tuple(ofactor(n))


def test_factorize_input_errors(t1e5):
    with pytest.raises(ValueError):
        arith.factorize(0, t1e5)
    with pytest.raises(ValueError):
        arith.factorize(-6, t1e5)
    tiny = arith.PrimeTable(10)
    with pytest.raises(ValueError):
        arith.factorize(10**4 + 1, tiny)


def test_classical_functions_at_12(t1e5):
    assert _at(_classical(1, 100, t1e5), 1, 12) == {
        "omega": 2, "bigomega": 3, "sigma": 28, "s": 16, "phi": 4, "mu": 0,
        "rad": 6, "squarefull": 4, "lambda": 2,
    }


def test_classical_functions_at_45(t1e5):
    got = _at(_classical(1, 100, t1e5), 1, 45)
    assert (got["sigma"], got["phi"], got["rad"], got["squarefull"], got["lambda"], got["mu"]) \
        == (78, 24, 15, 9, 12, 0)


def test_classical_functions_against_oracles(t1e5):
    v = _classical(1, 3001, t1e5)
    for n in range(1, 3001):
        assert (int(v["sigma"][n - 1]), int(v["phi"][n - 1]), int(v["mu"][n - 1]),
                int(v["lambda"][n - 1])) == (osigma(n), ophi(n), omu(n), olam(n)), n


def test_aliquot_values(t1e5):
    s = _classical(1, 30, t1e5)["s"]
    assert int(s[12 - 1]) == 16
    assert int(s[2 - 1]) == 1
    assert int(s[1 - 1]) == 0
    # perfect numbers are fixed points
    assert int(s[6 - 1]) == 6
    assert int(s[28 - 1]) == 28


def test_carmichael_small_values(t1e5):
    lam = bulk.lambda_window(1, 600, t1e5.primes)
    assert [int(lam[n - 1]) for n in (8, 12, 1, 2, 16, 561)] == [2, 2, 1, 1, 4, 80]


def test_lambda_of_prime_power(t1e5):
    lam = bulk.lambda_window(1, 64, t1e5.primes)
    for pe, want in ((2, 1), (4, 2), (8, 2), (32, 8), (9, 6), (7, 6)):
        assert int(lam[pe - 1]) == want


def test_carmichael_divides_totient(t1e5):
    v = _classical(1, 10001, t1e5)
    assert not (v["phi"] % v["lambda"]).any()


def test_restricted_prime_counts(t1e5):
    E = ResidueClasses(4, (1,))
    c = lambda kind, sel: int(bulk.counts_window(60, 61, t1e5.primes, kind, sel)[0])
    assert c("omega", E) == 1
    assert c("omega", E.complement()) == 2
    assert c("bigomega", E) == 1
    assert c("bigomega", E.complement()) == 3


def test_restricted_counts_partition(t1e5):
    E = ResidueClasses(3, (1,))
    for kind in ("omega", "bigomega"):
        c = lambda sel: bulk.counts_window(1, 500, t1e5.primes, kind, sel).astype(np.int64)
        assert (c(E) + c(E.complement()) == c(None)).all()
        assert c(None).tolist() == [
            len(ofactor(n)) if kind == "omega" else sum(e for _, e in ofactor(n))
            for n in range(1, 500)]


def test_kronecker_matches_euler_criterion(t1e5):
    odd_primes = [int(p) for p in t1e5.primes[1:50]]
    for D in (-4, -3, 5, 8, -8, 12, 21):
        for p in odd_primes:
            assert arith.kronecker(D, p) == olegendre(D, p)


def test_kronecker_two_adic_cases():
    # (D|2) vanishes for even D, follows the mod 8 pattern for odd D
    assert arith.kronecker(12, 2) == 0
    assert arith.kronecker(7, 2) == 1
    assert arith.kronecker(17, 2) == 1
    assert arith.kronecker(3, 2) == -1
    assert arith.kronecker(5, 2) == -1
    assert arith.kronecker(-4, 2) == 0


def test_kronecker_minus_four_is_mod_four_sign():
    for n in range(1, 200):
        got = arith.kronecker(-4, n)
        if n % 2 == 0:
            assert got == 0
        elif n % 4 == 1:
            assert got == 1
        else:
            assert got == -1


def test_kronecker_multiplicative_in_lower_argument():
    for D in (-4, 5, -8, 13):
        for m in range(1, 40):
            for n in range(1, 40):
                assert arith.kronecker(D, m * n) == arith.kronecker(D, m) * arith.kronecker(D, n)


def test_kronecker_rejects_nonpositive():
    with pytest.raises(ValueError):
        arith.kronecker(5, 0)
    with pytest.raises(ValueError):
        arith.kronecker(5, -3)


def test_is_prime_small_and_table(t1e5):
    assert arith.is_prime(2)
    assert arith.is_prime(3)
    assert not arith.is_prime(1)
    assert not arith.is_prime(0)
    assert not arith.is_prime(-7)
    assert not arith.is_prime(25)
    assert arith.is_prime(99991, t1e5)
    assert not arith.is_prime(99993, t1e5)
    # above the table the strong test takes over
    assert arith.is_prime(10**5 + 3, t1e5)


def test_is_prime_large_values():
    assert arith.is_prime(10**9 + 7)
    assert not arith.is_prime((10**9 + 7) ** 2)
    assert not arith.is_prime(561)
    assert not arith.is_prime(2**81 - 1)
    with pytest.raises(ValueError):
        arith.is_prime(2**81 + 5)


def test_is_prime_agrees_with_sieve(t1e5):
    for n in range(2, 2000):
        assert arith.is_prime(n) == (n in t1e5)


def test_spf_array_is_int64(t1e5):
    w = arith.FactorWindow(2, 100, t1e5)
    assert w.spf.dtype == np.int64
    assert int(w.spf[0]) == 2
