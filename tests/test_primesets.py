"""Prime subsets: scalar membership, vector masks, complements."""

import numpy as np
import pytest

from siftlab import primesets as ps

from oracles import olegendre


def _check_mask_matches_scalar(E, arr):
    mask = np.asarray(E.mask(arr), dtype=bool)
    for i, p in enumerate(arr.tolist()):
        assert bool(mask[i]) == E.contains(int(p))


def test_all_primes(t1e5):
    E = ps.ALL_PRIMES
    assert E.contains(2) and E.contains(97)
    assert E.mask(t1e5.primes[:10]).all()
    assert E.spec_string() == "all"


def test_min_threshold(t1e5):
    E = ps.MinThreshold(11)
    assert not E.contains(7)
    assert E.contains(11)
    _check_mask_matches_scalar(E, t1e5.primes[:50])
    assert E.spec_string() == "pmin:11"
    assert E.smallest(t1e5.primes) == 11


def test_residue_classes(t1e5):
    E = ps.ResidueClasses(4, (1,))
    assert E.contains(5) and E.contains(13)
    assert not E.contains(3) and not E.contains(2)
    _check_mask_matches_scalar(E, t1e5.primes[:200])
    assert E.spec_string() == "mod:4:1"
    multi = ps.ResidueClasses(10, (1, 9))
    _check_mask_matches_scalar(multi, t1e5.primes[:200])
    assert multi.spec_string() == "mod:10:1,9"


def test_residue_classes_validation():
    with pytest.raises(ValueError):
        ps.ResidueClasses(0, (0,))
    with pytest.raises(ValueError):
        ps.ResidueClasses(4, (4,))
    with pytest.raises(ValueError):
        ps.ResidueClasses(4, (-1,))


def test_kronecker_sign_matches_euler(t1e5):
    E = ps.KroneckerSign(-4, 1)
    odd = t1e5.primes[1:200]
    mask = E.mask(odd)
    for i, p in enumerate(odd.tolist()):
        assert bool(mask[i]) == (olegendre(-4, int(p)) == 1)
    assert E.spec_string() == "kron:-4:+1"
    assert ps.KroneckerSign(5, -1).spec_string() == "kron:5:-1"


def test_kronecker_sign_equals_residue_class_for_minus_four(t1e5):
    # split primes for discriminant -4 are exactly those 1 mod 4
    a = ps.KroneckerSign(-4, 1)
    b = ps.ResidueClasses(4, (1,))
    odd = t1e5.primes[1:500]
    assert np.array_equal(a.mask(odd), b.mask(odd))


def test_kronecker_sign_builds_its_symbol_table_once(monkeypatch, t1e5):
    # a counts window with a selector asks for a mask once per chunk of its
    # cofactors, so each mask must not pay for the 4|disc| symbols again
    calls, real = [], ps.kronecker
    monkeypatch.setattr(ps, "kronecker", lambda a, n: calls.append(n) or real(a, n))
    E = ps.KroneckerSign(-1003, 1)
    odd = t1e5.primes[1:300]
    first = E.mask(odd)
    assert len(calls) == 4 * 1003
    assert np.array_equal(E.mask(odd), first) and len(calls) == 4 * 1003
    _check_mask_matches_scalar(E, odd)


def test_kronecker_sign_validation():
    with pytest.raises(ValueError):
        ps.KroneckerSign(5, 0)
    with pytest.raises(ValueError):
        ps.KroneckerSign(0, 1)


def test_explicit_set(t1e5):
    E = ps.explicit_primes([3, 7, 31])
    assert E.contains(7) and not E.contains(5)
    _check_mask_matches_scalar(E, t1e5.primes[:30])
    assert E.spec_string() == "list:3,7,31"
    empty = ps.explicit_primes([])
    assert not empty.mask(t1e5.primes[:5]).any()
    assert empty.smallest(t1e5.primes) is None


def test_interval(t1e5):
    E = ps.Interval(10, 30)
    assert E.contains(11) and E.contains(29)
    assert not E.contains(7) and not E.contains(31)
    _check_mask_matches_scalar(E, t1e5.primes[:30])
    assert E.spec_string() == "interval:10:30"


def test_complement_roundtrip(t1e5):
    E = ps.ResidueClasses(4, (1,))
    comp = E.complement()
    assert comp.contains(3) and not comp.contains(5)
    assert comp.complement() is E
    arr = t1e5.primes[:100]
    assert np.array_equal(comp.mask(arr), ~E.mask(arr))
    assert comp.spec_string() == "not:mod:4:1"


def test_default_mask_path(t1e5):
    # a subset without a vector override uses the scalar fallback
    class Odd(ps.PrimeSubset):
        def contains(self, p):
            return p % 2 == 1

    E = Odd()
    arr = t1e5.primes[:20]
    mask = E.mask(arr)
    assert not mask[0] and mask[1:].all()


def test_smallest(t1e5):
    assert ps.ALL_PRIMES.smallest(t1e5.primes) == 2
    assert ps.ResidueClasses(4, (1,)).smallest(t1e5.primes) == 5
    assert ps.Interval(90, 96).smallest(t1e5.primes) is None
