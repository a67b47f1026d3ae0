"""Residue sieves, survivor windows, and exact shifted-prime / form-value sets."""

import tracemalloc
from math import isqrt

import numpy as np
import pytest

from siftlab import arith, bulk, specs
from siftlab import multfunc as mf
from siftlab import sift as sf

from oracles import is_prime_slow, oadmits, oform_values, or_lattice, oshifted_primes


def test_condition_accessors():
    # sorted by prime: at most 2 residues at a prime; none at 5 or 7
    c = sf.condition({3: (1, 2), 2: (1,)})
    assert c.exclusions == ((2, (1,)), (3, (1, 2)))
    assert c.spec_string() == "explicit:2:1;3:1,2"
    assert sf.NO_SIEVE.exclusions == ()
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


def test_sift_thread_invariant(window_width):
    # the set is sieved as its windows are read: by 1 or 8 threads, at any width
    cond = sf.condition({2: (1,), 3: (2,), 7: (1, 3, 5)})
    s = sf.sift(50000, cond)

    def realize(threads):
        return bulk.fill_windows(np.empty(50001, dtype=bool), 0,
                                 lambda a, b, dest: np.copyto(dest, s.window(a, b)), threads)

    a = realize(1)
    window_width(997)
    b = realize(8)
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
    assert sf.nu_sum(None, 100) == 0.0  # no condition


def test_preset_condition_structure():
    cond = sf.preset_shifted_prime_superset(1, 1, 100, 5)
    assert cond.exclusions == ((2, (1,)), (3, (1,)), (5, (1,)))
    # primes dividing a*b are skipped
    cond6 = sf.preset_shifted_prime_superset(6, 1, 10**4, 10)
    assert cond6.exclusions == ((5, (1,)), (7, (1,)))


def test_preset_condition_admits_every_shifted_prime():
    cond = sf.preset_shifted_prime_superset(1, 1, 100, 5)
    for p in range(7, 100):
        if is_prime_slow(p) and p + 1 <= 100:
            assert oadmits(cond, p + 1)


def test_preset_condition_superset_at_scale():
    x, z = 10**5, 300
    cond = sf.preset_shifted_prime_superset(1, 1, x, z)
    exact = sf.exact_shifted_primes(1, 1, x)
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


def test_exact_shifted_primes_small():
    assert sf.exact_shifted_primes(1, 1, 30).members().tolist() == [
        3, 4, 6, 8, 12, 14, 18, 20, 24, 30,
    ]
    assert sf.exact_shifted_primes(2, 1, 30).members().tolist() == [
        5, 7, 11, 15, 23, 27,
    ]
    assert sf.exact_shifted_primes(1, -1, 30).members().tolist() == [
        1, 2, 4, 6, 10, 12, 16, 18, 22, 28, 30,
    ]


def test_exact_shifted_primes_brute():
    got = set(sf.exact_shifted_primes(3, -2, 200).members().tolist())
    expect = {3 * p - 2 for p in range(2, 100) if is_prime_slow(p) and 3 * p - 2 <= 200}
    assert got == expect


def test_exact_shifted_primes_validation():
    with pytest.raises(ValueError):
        sf.exact_shifted_primes(2, 4, 100)
    with pytest.raises(ValueError):
        sf.exact_shifted_primes(1, 0, 100)
    with pytest.raises(ValueError):
        sf.exact_shifted_primes(1, 1, 0)


def test_quadratic_form_basics():
    q = sf.QuadraticForm(1, 0, 1)
    assert q.disc == -4
    assert q.a * 3 * 3 + q.b * 3 * 4 + q.c * 4 * 4 == 25
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


def test_qf_shifted():
    s = sf.exact_qf_shifted(sf.QuadraticForm(1, 0, 1), 1, 50)
    expect = {
        n for n in range(1, 51) if or_lattice(n) > 0 and is_prime_slow(n + 1)
    }
    assert set(s.members().tolist()) == expect


# with k = -3, n = 1 and n = 2 give n + k < 0, where the p-range is clipped at 0;
# x + 1 = 53 is prime, so an index that wrapped to the end of the window would
# keep n = 2
@pytest.mark.parametrize("k, x", [(-1, 50), (-3, 52)])
def test_qf_shifted_negative_shift(k, x):
    s = sf.exact_qf_shifted(sf.QuadraticForm(1, 0, 1), k, x)
    expect = {
        n for n in range(1, x + 1) if or_lattice(n) > 0 and is_prime_slow(n + k)
    }
    assert set(s.members().tolist()) == expect


EXACT_X = 3 * 2**16 + 5
EXACT_ORACLES = {"sp:3,-2": lambda x: oshifted_primes(3, -2, x),
                 "sp:1,-1": lambda x: oshifted_primes(1, -1, x),
                 "qf:1,1,2": lambda x: oform_values(1, 1, 2, x),
                 "qf:1,0,1,shift=-3": lambda x: oform_values(1, 0, 1, x, -3)}


@pytest.mark.parametrize("spec", sorted(EXACT_ORACLES))
def test_exact_set_windows_match_brute_force(spec):
    # each window is computed on its own: the windows of every width tile the
    # oracle's [0, x], and so do windows from 0, across the 2**16 edges and at x
    x, E = EXACT_X, 1 << 16
    ss = specs.parse_set_spec(spec)
    s = ss.realize(x)
    expect = EXACT_ORACLES[spec](x)
    for width in (997, E, 1 << 20):
        got = [s.window(a, b) for a, b in bulk.window_ranges(0, x + 1, width)]
        assert np.concatenate(got).tobytes() == expect.tobytes(), width
    edges = [(0, 0), (0, 1), (0, 2), (0, 997), (0, E + 1), (E - 1, E + 1),
             (2 * E - 498, 2 * E + 499), (3 * E - 1, x + 1), (x, x + 1), (x + 1, x + 1)]
    for a, b in edges:
        assert s.window(a, b).tobytes() == expect[a:b].tobytes(), (a, b)
    assert s.count == int(np.count_nonzero(expect))


@pytest.mark.parametrize("make", [
    lambda: sf.exact_shifted_primes(1, -1, 10**7),
    lambda: sf.exact_qf_shifted(sf.QuadraticForm(1, 0, 1), -1, 10**7),
], ids=["sp:1,-1", "qf:1,0,1,shift=-1"])
def test_exact_set_holds_no_prime_table(make, monkeypatch):
    # each window sieves its own p-range, so the set holds only its base primes
    # to the root of its largest p (446 of them here), not a prime table to x
    # (6.2 MB)
    built = []
    init = arith.PrimeTable.__init__

    def spy_init(self, n):
        built.append(n)
        init(self, n)

    monkeypatch.setattr(arith.PrimeTable, "__init__", spy_init)
    tracemalloc.start()
    try:
        make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == [] and peak < 64 << 10


def test_sp_window_fits_the_set_plan():
    # one 2^20 window of sp:1,-1 near 1e8 through the histogram's window pass:
    # the omega counts, the set's image, its p-range's flags and the flag
    # sieve's scratch peak at about 4 bytes per integer (2.2 for the set's
    # window alone), inside the 24 per window integer that cli._plan_set plans
    W, x = 1 << 20, 10**8
    s, primes = sf.exact_shifted_primes(1, -1, x), bulk.primes_upto(isqrt(x))
    tracemalloc.start()
    try:
        mf.weighted_bins(x + 1 - W, x + 1, lambda a, b: bulk.counts_window(a, b, primes, "omega"),
                         s.window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * W


def test_isqrt_exact_below_two_to_the_62():
    # the float root of k^2 - 1 rounds up to k from about 2^26 on, and the step down
    # takes it back; that of k^2 and k^2 + 1 is k even where k^2 is not a double
    ks = np.array([1, 2, 3, 1 << 26, (1 << 26) + 1, (1 << 31) - 1], dtype=np.int64)
    n = np.concatenate((ks * ks - 1, ks * ks, ks * ks + 1, [0, (1 << 62) - 1]))
    assert sf._isqrt(n).tolist() == [isqrt(v) for v in n.tolist()]


def test_form_window_far_from_zero():
    # a window near 1e10 reads some 1e5 rows: X^2 + Y^2 with X, Y >= 0, one row at a time
    lo, hi = 10**10 - 1000, 10**10 + 1000
    expect = np.zeros(hi - lo, dtype=bool)
    for X in range(isqrt(hi - 1) + 1):
        y0 = isqrt(max(lo - X * X - 1, 0)) + (lo > X * X)
        for Y in range(y0, isqrt(hi - 1 - X * X) + 1):
            expect[X * X + Y * Y - lo] = True
    s = sf.exact_qf_values(sf.QuadraticForm(1, 0, 1), hi)
    assert s.window(lo, hi).tobytes() == expect.tobytes()
    with pytest.raises(OverflowError):
        sf.exact_qf_values(sf.QuadraticForm(1, 0, 1), 1 << 60)


def test_sifted_set_members_dtype():
    s = sf.sift(100, sf.NO_SIEVE)
    assert isinstance(s.members(), np.ndarray)
    assert s.x == 100
