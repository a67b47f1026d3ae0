"""Residue sieves, survivor bitmaps, and exact shifted-prime / form-value sets."""

import numpy as np
import pytest

from siftlab import bulk
from siftlab import sift as sf

from oracles import is_prime_slow, oadmits, or_lattice


def test_condition_accessors():
    c = sf.condition({2: (1,), 3: (1, 2)})
    assert c.v == 2
    assert c.support == (2, 3)
    assert c.nu(2) == 1 and c.nu(3) == 2 and c.nu(5) == 0
    assert c.residues_at(3) == (1, 2)
    assert c.residues_at(7) == ()
    assert c.spec_string() == "explicit:2:1;3:1,2"
    assert sf.NO_SIEVE.v == 0
    assert sf.NO_SIEVE.spec_string() == "none"


def test_condition_validation():
    with pytest.raises(ValueError):
        sf.condition({4: (1,)})
    with pytest.raises(ValueError):
        sf.condition({3: (0,)})
    with pytest.raises(ValueError):
        sf.condition({3: (3,)})
    with pytest.raises(ValueError):
        sf.condition({3: (1, 1)})
    with pytest.raises(ValueError):
        sf.SieveCondition(((3, (1,)), (3, (2,))))


def test_sift_single_class():
    s = sf.sift(20, sf.condition({2: (1,)}))
    assert s.count == 10
    assert s.members().tolist() == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    assert s.contains(4) and not s.contains(5)
    assert not s.contains(0) and not s.contains(21)


def test_sift_two_classes():
    s = sf.sift(20, sf.condition({3: (1, 2)}))
    assert s.members().tolist() == [3, 6, 9, 12, 15, 18]


def test_sift_matches_scalar_admits():
    cond = sf.condition({2: (1,), 5: (2, 3), 11: (7,)})
    s = sf.sift(500, cond)
    for n in range(1, 501):
        assert s.contains(n) == oadmits(cond, n)


def test_sift_thread_invariant():
    # the set is sieved as its windows are read: by 1 or 8 threads, at any width
    cond = sf.condition({2: (1,), 3: (2,), 7: (1, 3, 5)})
    s = sf.sift(50000, cond)

    def realize(threads, width):
        return bulk.fill_windows(np.empty(50001, dtype=bool), 0,
                                 lambda a, b, dest: np.copyto(dest, s.window(a, b)),
                                 threads, width)

    a = realize(1, bulk.DEFAULT_WINDOW)
    b = realize(8, 997)
    assert a.tobytes() == b.tobytes()


def test_sift_rejects_empty_range():
    with pytest.raises(ValueError):
        sf.sift(0, sf.NO_SIEVE)


def test_everything():
    s = sf.everything(10)
    assert s.count == 10
    assert s.members().tolist() == list(range(1, 11))


def test_nu_sum():
    c = sf.condition({2: (1,), 3: (1, 2)})
    assert sf.nu_sum(c, 10) == pytest.approx(7 / 6, rel=1e-15)
    assert sf.nu_sum(c, 2) == pytest.approx(0.5)
    assert sf.nu_sum(sf.NO_SIEVE, 100) == 0.0


def test_preset_condition_structure():
    cond = sf.preset_shifted_prime_superset(1, 1, 100, 5)
    assert cond.support == (2, 3, 5)
    assert cond.residues_at(3) == (1,)
    # primes dividing a*b are skipped
    cond6 = sf.preset_shifted_prime_superset(6, 1, 10**4, 10)
    assert cond6.support == (5, 7)


def test_preset_condition_admits_every_shifted_prime():
    cond = sf.preset_shifted_prime_superset(1, 1, 100, 5)
    for p in range(7, 100):
        if is_prime_slow(p) and p + 1 <= 100:
            assert oadmits(cond, p + 1)


def test_preset_condition_superset_at_scale(t1e5):
    x, z = 10**5, 300
    cond = sf.preset_shifted_prime_superset(1, 1, x, z)
    exact = sf.exact_shifted_primes(1, 1, x, t1e5)
    for n in exact.members().tolist():
        if n > z + 1:
            assert oadmits(cond, n)


def test_preset_condition_validation():
    with pytest.raises(ValueError):
        sf.preset_shifted_prime_superset(2, 4, 100, 5)
    with pytest.raises(ValueError):
        sf.preset_shifted_prime_superset(0, 1, 100, 5)
    with pytest.raises(ValueError):
        sf.preset_shifted_prime_superset(1, 0, 100, 5)
    with pytest.raises(ValueError):
        sf.preset_shifted_prime_superset(1, 1, 100, 11)


def test_exact_shifted_primes_small(t1e5):
    assert sf.exact_shifted_primes(1, 1, 30, t1e5).members().tolist() == [
        3, 4, 6, 8, 12, 14, 18, 20, 24, 30,
    ]
    assert sf.exact_shifted_primes(2, 1, 30, t1e5).members().tolist() == [
        5, 7, 11, 15, 23, 27,
    ]
    assert sf.exact_shifted_primes(1, -1, 30, t1e5).members().tolist() == [
        1, 2, 4, 6, 10, 12, 16, 18, 22, 28, 30,
    ]


def test_exact_shifted_primes_brute(t1e5):
    got = set(sf.exact_shifted_primes(3, -2, 200, t1e5).members().tolist())
    expect = {3 * p - 2 for p in range(2, 100) if is_prime_slow(p) and 3 * p - 2 <= 200}
    assert got == expect


def test_exact_shifted_primes_validation(t1e5):
    with pytest.raises(ValueError):
        sf.exact_shifted_primes(2, 4, 100, t1e5)
    with pytest.raises(ValueError):
        sf.exact_shifted_primes(1, 0, 100, t1e5)
    with pytest.raises(ValueError):
        sf.exact_shifted_primes(1, 1, 0, t1e5)


def test_quadratic_form_basics():
    q = sf.QuadraticForm(1, 0, 1)
    assert q.disc == -4
    assert q.value(3, 4) == 25
    assert q.spec_string() == "qf:1,0,1"


def test_quadratic_form_validation():
    with pytest.raises(ValueError):
        sf.QuadraticForm(2, 0, 2)
    with pytest.raises(ValueError):
        sf.QuadraticForm(1, 3, 1)
    with pytest.raises(ValueError):
        sf.QuadraticForm(-1, 0, 1)


def test_qf_values_match_lattice_count():
    s = sf.exact_qf_values(sf.QuadraticForm(1, 0, 1), 200)
    for n in range(1, 201):
        assert s.contains(n) == (or_lattice(n) > 0)
    with pytest.raises(ValueError):
        sf.exact_qf_values(sf.QuadraticForm(1, 0, 1), 0)


def test_qf_values_other_form():
    # X^2 + X*Y + Y^2 represents exactly the Loeschian numbers
    s = sf.exact_qf_values(sf.QuadraticForm(1, 1, 1), 100)
    expect = set()
    for X in range(-11, 12):
        for Y in range(-11, 12):
            v = X * X + X * Y + Y * Y
            if 1 <= v <= 100:
                expect.add(v)
    assert set(s.members().tolist()) == expect


def test_qf_shifted(t1e5):
    s = sf.exact_qf_shifted(sf.QuadraticForm(1, 0, 1), 1, 50, t1e5)
    expect = {
        n for n in range(1, 51) if or_lattice(n) > 0 and is_prime_slow(n + 1)
    }
    assert set(s.members().tolist()) == expect


# with k = -3, n = 1 and n = 2 give n + k < 0; the table then reaches x + 1 = 53,
# a prime, so an index that wrapped to the end of the flags would keep n = 2
@pytest.mark.parametrize("k, x", [(-1, 50), (-3, 52)])
def test_qf_shifted_negative_shift(k, x):
    s = sf.exact_qf_shifted(sf.QuadraticForm(1, 0, 1), k, x)
    expect = {
        n for n in range(1, x + 1) if or_lattice(n) > 0 and is_prime_slow(n + k)
    }
    assert set(s.members().tolist()) == expect


def test_sifted_set_members_dtype():
    s = sf.sift(100, sf.NO_SIEVE)
    assert isinstance(s.members(), np.ndarray)
    assert s.x == 100
