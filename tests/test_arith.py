"""Exact arithmetic layer: prime tables, factor windows, classical functions.

Every derived quantity is checked against an independent pure-python oracle
before any frozen value is trusted.
"""

import math

import numpy as np
import pytest

from siftlab import arith
from siftlab.primesets import ResidueClasses

from oracles import ofactor, olam, olegendre, omu, ophi, osigma


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
    f = arith.factorize(12, t1e5)
    assert arith.omega_in(f) == 2
    assert arith.big_omega_in(f) == 3
    assert arith.sigma(f) == 28
    assert arith.phi(f) == 4
    assert arith.mu(f) == 0
    assert arith.rad(f) == 6
    assert arith.squarefull_part(f) == 4
    assert arith.carmichael_lambda(f) == 2
    assert arith.aliquot_s(f) == 16


def test_classical_functions_at_45(t1e5):
    f = arith.factorize(45, t1e5)
    assert arith.sigma(f) == 78
    assert arith.phi(f) == 24
    assert arith.rad(f) == 15
    assert arith.squarefull_part(f) == 9
    assert arith.carmichael_lambda(f) == 12
    assert arith.mu(f) == 0


def test_classical_functions_against_oracles(t1e5):
    w = arith.FactorWindow(1, 3001, t1e5)
    for n in range(1, 3001):
        f = w.factorize(n)
        assert arith.sigma(f) == osigma(n)
        assert arith.phi(f) == ophi(n)
        assert arith.mu(f) == omu(n)
        assert arith.carmichael_lambda(f) == olam(n)


def test_aliquot_values(t1e5):
    s = lambda n: arith.aliquot_s(arith.factorize(n, t1e5))
    assert s(12) == 16
    assert s(2) == 1
    assert s(1) == 0
    # perfect numbers are fixed points
    assert s(6) == 6
    assert s(28) == 28


def test_carmichael_small_values(t1e5):
    lam = lambda n: arith.carmichael_lambda(arith.factorize(n, t1e5))
    assert lam(8) == 2
    assert lam(12) == 2
    assert lam(1) == 1
    assert lam(2) == 1
    assert lam(16) == 4
    assert lam(561) == 80


def test_lambda_of_prime_power():
    assert arith.lambda_of_prime_power(2, 1) == 1
    assert arith.lambda_of_prime_power(2, 2) == 2
    assert arith.lambda_of_prime_power(2, 3) == 2
    assert arith.lambda_of_prime_power(2, 5) == 8
    assert arith.lambda_of_prime_power(3, 2) == 6
    assert arith.lambda_of_prime_power(7, 1) == 6


def test_carmichael_divides_totient(t1e5):
    w = arith.FactorWindow(1, 10001, t1e5)
    for n in range(1, 10001):
        f = w.factorize(n)
        assert arith.phi(f) % arith.carmichael_lambda(f) == 0


def test_restricted_prime_counts(t1e5):
    E = ResidueClasses(4, (1,))
    f60 = arith.factorize(60, t1e5)
    assert arith.omega_in(f60, E) == 1
    assert arith.omega_in(f60, E.complement()) == 2
    assert arith.big_omega_in(f60, E) == 1
    assert arith.big_omega_in(f60, E.complement()) == 3


def test_restricted_counts_partition(t1e5):
    E = ResidueClasses(3, (1,))
    for n in range(1, 500):
        f = arith.factorize(n, t1e5)
        assert arith.omega_in(f, E) + arith.omega_in(f, E.complement()) == arith.omega_in(f)
        assert (
            arith.big_omega_in(f, E) + arith.big_omega_in(f, E.complement())
            == arith.big_omega_in(f)
        )


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


def test_divisors_full_and_pruned(t1e5):
    f = arith.factorize(12, t1e5)
    assert sorted(arith.divisors(f)) == [1, 2, 3, 4, 6, 12]
    assert sorted(arith.divisors(f, limit=4)) == [1, 2, 3, 4]
    assert sorted(arith.divisors(f, limit=1)) == [1]
    f1 = arith.factorize(1, t1e5)
    assert arith.divisors(f1) == [1]


def test_divisors_count_matches_tau(t1e5):
    for n in range(1, 500):
        f = arith.factorize(n, t1e5)
        tau = math.prod(e + 1 for _, e in f.parts)
        assert len(arith.divisors(f)) == tau
        if n > 1:
            assert n not in arith.divisors(f, limit=n // 2)


def test_valuation():
    assert arith.valuation(48, 2) == 4
    assert arith.valuation(45, 3) == 2
    assert arith.valuation(45, 2) == 0
    assert arith.valuation(1, 7) == 0


def test_spf_array_is_int64(t1e5):
    w = arith.FactorWindow(2, 100, t1e5)
    assert w.spf.dtype == np.int64
    assert int(w.spf[0]) == 2
