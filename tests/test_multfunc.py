"""Multiplicative weights, their window values and masses, and prime sums."""

import math

import numpy as np
import pytest

from siftlab import arith, bulk, multfunc
from siftlab.primesets import ALL_PRIMES, Complement, ResidueClasses
from siftlab.specs import parse_weight

from oracles import ofactor, ohr_constant


def _weights(f, table):
    """f on [1, 400) from the window kernel the CLI runs: w[n - 1] = f(n)."""
    return bulk.mult_window(1, 400, table.primes, f.rule, f.prime)


def _oracle_weight(f, n):
    """f(n) as the product of f(p**e) over the trial-division factorization, ascending p."""
    return math.prod(float(f.rule(p, e)) for p, e in ofactor(n))


def test_builtin_values_pointwise(t1e5):
    cases = {
        multfunc.one(): lambda n: 1.0,
        multfunc.mu_sq(): lambda n: 1.0 if all(e == 1 for _, e in ofactor(n)) else 0.0,
        multfunc.z_omega(2): lambda n: 2.0 ** len(ofactor(n)),
        multfunc.tau_k(2): lambda n: float(math.prod(e + 1 for _, e in ofactor(n))),
        multfunc.phi_over_n(): lambda n: math.prod(1 - 1 / p for p, _ in ofactor(n)),
        multfunc.n_over_phi(): lambda n: math.prod(p / (p - 1) for p, _ in ofactor(n)),
    }
    for f, expect in cases.items():
        w = _weights(f, t1e5)
        for n in range(1, 200):
            assert w[n - 1] == pytest.approx(expect(n), rel=1e-12)


def test_sum_of_two_squares_weights(t1e5):
    r4 = multfunc.r_over_4()
    ind = multfunc.sum2sq_indicator()
    from oracles import or_lattice

    w_r4, w_ind = _weights(r4, t1e5), _weights(ind, t1e5)
    for n in range(1, 400):
        assert w_r4[n - 1] == pytest.approx(or_lattice(n) / 4.0)
        assert w_ind[n - 1] == (1.0 if or_lattice(n) > 0 else 0.0)


def test_bigomega_weight_and_range_warning(t1e5):
    with pytest.warns(UserWarning):
        f = multfunc.z_bigomega(2)
    assert _weights(f, t1e5)[12 - 1] == 8.0
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        multfunc.z_bigomega(1.5)


def test_weight_constructor_errors():
    with pytest.raises(ValueError):
        multfunc.z_omega(-1)
    with pytest.raises(ValueError):
        multfunc.z_bigomega(-0.5)
    with pytest.raises(ValueError):
        multfunc.tau_k(0)


def test_eval_rejects_negative_rule(t1e5):
    bad = multfunc.MultiplicativeFunction("bad", lambda p, e: -1.0,
                                          lambda a: np.full(a.shape, -1.0))
    with pytest.raises(ValueError, match="negative"):
        _weights(bad, t1e5)


def test_builtin_lookup():
    assert multfunc.builtin("one").spec == "one"
    assert multfunc.builtin("musq").spec == "musq"
    assert multfunc.builtin("zomega", 3).spec_string() == "zomega:3"
    assert multfunc.builtin("Noverphi").spec == "Noverphi"
    # one name per weight, its spec's name
    assert sorted(multfunc.BUILTINS) == ["Noverphi", "musq", "one", "phioverN", "r4", "s2s",
                                         "tauk", "zbigomega", "zomega"]
    for bad in ("nope", "mu_sq", "n_over_phi"):
        with pytest.raises(ValueError, match="unknown builtin weight"):
            multfunc.builtin(bad)


def test_values_upto_matches_pointwise():
    for f in (multfunc.one(), multfunc.z_omega(2), multfunc.tau_k(3), multfunc.mu_sq()):
        v = multfunc.values_upto(f, 2000)
        assert v[0] == 0.0
        for n in range(1, 2001):
            assert v[n] == pytest.approx(_oracle_weight(f, n), rel=1e-12)


WB_X = 3 * 2**20 + 17  # three full bulk windows and a short fourth


@pytest.fixture(scope="module")
def wb_case():
    n = np.arange(WB_X + 1)
    table = arith.PrimeTable(math.isqrt(WB_X) + 1)
    # bigomega peaks at 21 (2**21 and 2**20 * 3), where mu**2 is 0 everywhere
    keys = {"uint8": bulk.counts_range(WB_X, table.primes, "bigomega"), "bool": n % 3 == 0}
    keys["uint8"][0] = 255  # n = 0 is never selected and outranks every selected key
    # (lo, sel): a bool mask over [0, WB_X], or every n from lo on
    sels = {
        "mask": (0, (n % 7 != 3) & (n >= 2)),
        "slice": (2, None),
        "empty-mask": (0, np.zeros(WB_X + 1, dtype=bool)),
        "empty-slice": (WB_X + 1, None),
    }
    return table, keys, sels


def _bins(k, lo, sel, weights):
    """weighted_bins over [lo, WB_X] with keys read from the array k, windows from the mask sel."""
    return multfunc.weighted_bins(lo, WB_X + 1, lambda a, b: k[a:b],
                                  None if sel is None else lambda a, b: sel[a:b], weights)


def _weight_sources(f, table):
    """values_upto's array of f, and f's weights as that array read a window at a time and
    as each window's own mult_window (window_weights); both None for f = one."""
    fv = multfunc.values_upto(f, WB_X)
    return fv, {"values_upto": None if f.is_one() else lambda a, b: fv[a:b],
                "window_weights": multfunc.window_weights(f, WB_X)}


@pytest.mark.parametrize("spec", ["zomega:1.3", "musq", "one"])
@pytest.mark.parametrize("kind", ["uint8", "bool"])
def test_weighted_bins_match_one_bincount_bit_for_bit(wb_case, spec, kind):
    table, keys, sels = wb_case
    f = parse_weight(spec)
    fv, sources = _weight_sources(f, table)
    assert (sources["window_weights"] is None) == f.is_one()
    for source, weights in sources.items():
        for name, (lo, sel) in sels.items():
            k = keys[kind]
            kept = slice(lo, None) if sel is None else sel
            want = np.bincount(k[kept]) if f.is_one() else np.bincount(k[kept], weights=fv[kept])
            if source == "window_weights":
                lo = max(lo, 1)  # mult_window starts at n = 1; no mask here selects n = 0
            got = _bins(k, lo, sel, weights)
            assert (got.dtype, got.size) == (want.dtype, want.size), (source, name)
            assert got.tobytes() == want.tobytes(), (source, name)
            if kind == "uint8" and not name.startswith("empty"):
                assert got.size == 22
                if spec == "musq":
                    assert got[21] == 0.0


def _gather_masks():
    n = np.arange(WB_X + 1)
    W = bulk.DEFAULT_WINDOW
    rng = np.random.default_rng(11)
    windows = rng.random(WB_X + 1) < 0.5
    windows[W : 2 * W] = True       # read as a view
    windows[2 * W : 3 * W] = False  # gathers nothing
    masks = {"alternating": n % 2 == 1, "random": rng.random(WB_X + 1) < 0.3,
             "windows": windows, "all": np.ones(WB_X + 1, dtype=bool)}
    for edge in (W - 1, W, 3 * W, WB_X):
        masks[f"only-{edge}"] = n == edge
    return masks


@pytest.mark.parametrize("spec", ["zomega:1.3", "one"])
def test_weighted_bins_gather_masks_by_index(wb_case, spec):
    # each window's part of a mask is gathered by its indices, or read as a
    # view when it is all True; "all" also selects n = 0, whose key is 255
    table, keys, _ = wb_case
    f = parse_weight(spec)
    fv, sources = _weight_sources(f, table)
    k = keys["uint8"]
    for name, sel in _gather_masks().items():
        want = np.bincount(k[sel]) if f.is_one() else np.bincount(k[sel], weights=fv[sel])
        got = _bins(k, 0, sel, sources["values_upto"])
        assert (got.dtype, got.size) == (want.dtype, want.size), name
        assert got.tobytes() == want.tobytes(), name


def test_mertens_sum_small(t1e5):
    got = multfunc.mertens_sum(multfunc.one(), 10, table=t1e5)
    assert got == pytest.approx(247 / 210, rel=1e-15)
    assert multfunc.mertens_sum(multfunc.one(), 1, table=t1e5) == 0.0
    E = ResidueClasses(4, (1,))
    got_E = multfunc.mertens_sum(multfunc.one(), 20, E, table=t1e5)
    assert got_E == pytest.approx(371 / 1105, rel=1e-14)


def test_mertens_sum_splits_over_complement(t1e5):
    f = multfunc.z_omega(2)
    E = ResidueClasses(3, (1,))
    whole = multfunc.mertens_sum(f, 10**4, ALL_PRIMES, t1e5)
    part = multfunc.mertens_sum(f, 10**4, E, t1e5)
    rest = multfunc.mertens_sum(f, 10**4, E.complement(), t1e5)
    assert part + rest == pytest.approx(whole, rel=1e-14)
    assert 0.0 < part < whole


def test_mertens_empty_selection(t1e5):
    E = Complement(ALL_PRIMES)
    assert multfunc.mertens_sum(multfunc.one(), 100, E, t1e5) == 0.0


def test_sup_distance_constant():
    # the sup sits at t = 2 and never moves, so the closed form is exact
    closed = 0.5 - math.log(math.log(2.0))
    assert multfunc.hr_constant(2) == pytest.approx(closed, rel=1e-15)
    assert multfunc.hr_constant(1000) == pytest.approx(closed, rel=1e-15)
    assert multfunc.hr_constant(10**4) == pytest.approx(closed, rel=1e-15)
    with pytest.raises(ValueError):
        multfunc.hr_constant(1)


@pytest.mark.parametrize("x", [2, 3, 285, 286, 287, 293, 10**5, 10**6, 10**7])
def test_hr_constant_reads_no_prime_past_286(x):
    # the sup over [2, x] is the same double as the oracle's scan of every
    # prime up to x, though the library stops at 286
    assert multfunc.hr_constant(x) == ohr_constant(x) == 0.8665129205816644


def test_sup_distance_nondecreasing():
    vals = [multfunc.hr_constant(x) for x in (2, 10, 100, 10**4)]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


# sample parameter lists for each builtin, by the type of its parameter
_SAMPLE_PARAMS = {None: [()], float: [(0.0,), (0.5,), (1.0,), (1.3,)], int: [(1,), (3,)]}


def test_at_primes_vector_agrees_with_rule(t1e5):
    # prime is the one source of f(p): the mult windows' cofactor finish and
    # mertens_sum both read it, so every builtin's must be rule(p, 1)
    ps = t1e5.primes[t1e5.primes <= 10**4]
    for name, (ctor, param) in multfunc.BUILTINS.items():
        for params in _SAMPLE_PARAMS[param]:
            f = ctor(*params)
            vec = f.at_primes(ps)
            scalar = [f.rule(int(p), 1) for p in ps]
            np.testing.assert_allclose(vec, scalar, rtol=1e-15, atol=0, err_msg=f"{name}{params}")


def test_weight_needs_its_value_at_the_primes():
    with pytest.raises(TypeError):
        multfunc.MultiplicativeFunction("bare", lambda p, e: 1.0)


def test_weights_constant_at_primes_give_prime_as_a_number(t1e5):
    # A weight with one value at every prime and a callable prime pays
    # the cofactor finish in every mult window; a number prime that is not
    # rule(p, 1) would move the bytes the number path prints.  A parameter
    # type missing from _SAMPLE_PARAMS fails here with a KeyError.
    ps = t1e5.primes[t1e5.primes <= 10**4]
    for name, (ctor, param) in multfunc.BUILTINS.items():
        for params in _SAMPLE_PARAMS[param]:
            f = ctor(*params)
            assert f.spec.partition(":")[0] == name
            at_p = [f.rule(int(p), 1) for p in ps]
            if callable(f.prime):
                assert len(set(at_p)) > 1 and np.unique(f.at_primes(ps)).size > 1, (name, params)
            else:
                assert at_p == [f.prime] * len(ps), (name, params)
