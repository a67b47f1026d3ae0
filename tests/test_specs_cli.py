"""Spec-string parsing and the command-line front end."""

import argparse
import hashlib
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from siftlab import arith, bulk, cli, multfunc, primesets, sift, specs
from siftlab import __version__
from siftlab.errors import ResourceBudgetError
from siftlab.primesets import ALL_PRIMES, Complement, Explicit
from siftlab.sift import NO_SIEVE


# ------------------------------------------------------------------- specs

def test_parse_weight_names():
    # each spec parses to its constructor's weight: the same spec and the same rule
    cases = {"one": multfunc.one(), "musq": multfunc.mu_sq(), "zomega:2.5": multfunc.z_omega(2.5),
             "zbigomega:1.5": multfunc.z_bigomega(1.5), "tauk:3": multfunc.tau_k(3),
             "r4": multfunc.r_over_4(), "s2s": multfunc.sum2sq_indicator(),
             "phioverN": multfunc.phi_over_n(), "Noverphi": multfunc.n_over_phi()}
    for spec, f in cases.items():
        got = specs.parse_weight(spec)
        assert got.spec == f.spec == spec
        powers = [(p, e) for p in (2, 3, 5, 7, 13) for e in (1, 2, 3)]
        assert [got.rule(p, e) for p, e in powers] == [f.rule(p, e) for p, e in powers], spec


def test_parse_weight_round_trip():
    # a z that :g, 6 significant digits, would round is spelled in full
    for s in ("one", "musq", "zomega:2.5", "tauk:3", "r4", "s2s", "phioverN", "Noverphi",
              "zomega:1.3", "zomega:2", "zomega:1.5", "zomega:1e-07", "zomega:1.23457",
              "zomega:1.23456789", "zbigomega:0.30000000000000004"):
        assert specs.parse_weight(s).spec_string() == s


def test_parse_weight_warns_on_large_multiplicity_base():
    with pytest.warns(UserWarning):
        specs.parse_weight("zbigomega:2")


def test_parse_weight_errors():
    for bad in ("one:5", "zomega", "zomega:abc", "tauk:1.5", "nope", "",
                "zomega:inf", "zomega:nan", "zbigomega:inf", "zbigomega:nan"):
        with pytest.raises(ValueError):
            specs.parse_weight(bad)


def test_parse_primeset_kinds(t1e5):
    assert specs.parse_primeset("all") is ALL_PRIMES
    assert specs.parse_primeset("pmin:11").p0 == 11
    E = specs.parse_primeset("mod:4:1,3")
    assert E.modulus == 4 and set(E.residues) == {1, 3}
    K = specs.parse_primeset("kron:-4:+1")
    assert K.disc == -4 and K.sign == 1
    assert specs.parse_primeset("kron:5:-1").sign == -1
    I = specs.parse_primeset("interval:10:20")
    assert I.lo == 10 and I.hi == 20
    C = specs.parse_primeset("not:mod:4:1")
    assert isinstance(C, Complement)
    L = specs.parse_primeset("list:3,7,31")
    assert isinstance(L, Explicit) and L.members == frozenset({3, 7, 31})
    assert specs.parse_primeset("list:7").members == frozenset({7})


def test_parse_primeset_round_trip(t1e5):
    # every concrete subset primesets exports must come back from its spec
    cases = [
        "all", "pmin:11", "mod:4:1", "mod:10:1,9", "kron:-4:+1", "kron:5:-1",
        "interval:3:9", "not:mod:3:1", "list:3,7,31",
    ]
    for s in cases:
        E = specs.parse_primeset(s)
        assert E.spec_string() == s
        again = specs.parse_primeset(E.spec_string())
        arr = t1e5.primes[:100]
        assert np.array_equal(E.mask(arr), again.mask(arr))
    exported = {getattr(primesets, name) for name in primesets.__all__}
    concrete = {c for c in exported if isinstance(c, type)
                and issubclass(c, primesets.PrimeSubset) and c is not primesets.PrimeSubset}
    assert concrete == {type(specs.parse_primeset(s)) for s in cases}


def test_parse_primeset_from_file(tmp_path):
    path = tmp_path / "members.txt"
    path.write_text("3\n7\n")
    E = specs.parse_primeset(f"list:{path}")
    assert E.members == frozenset({3, 7})


def test_parse_primeset_errors():
    for bad in ("kron:5:2", "weird:1", "mod:4:x", "pmin:abc", "list:/no/such/file"):
        with pytest.raises(ValueError):
            specs.parse_primeset(bad)


def test_parse_set_spec_none_and_sp():
    ss = specs.parse_set_spec("none")
    assert ss.kind == "cond" and ss.cond is NO_SIEVE
    assert ss.spec_string() == "none"
    sp = specs.parse_set_spec("sp:2,-1")
    assert (sp.kind, sp.a, sp.b) == ("sp", 2, -1)
    assert sp.spec_string() == "sp:2,-1"


def test_parse_set_spec_qf():
    q = specs.parse_set_spec("qf:1,0,1")
    assert (q.kind, q.a, q.b, q.c, q.shift) == ("qf", 1, 0, 1, None)
    assert q.spec_string() == "qf:1,0,1"
    qs = specs.parse_set_spec("qf:1,0,1,shift=-1")
    assert qs.shift == -1
    assert qs.spec_string() == "qf:1,0,1,shift=-1"


def test_parse_set_spec_avoid():
    ss = specs.parse_set_spec("avoid:1/modp<=5", 100)
    assert ss.cond.exclusions == ((2, (1,)), (3, (1,)), (5, (1,)))
    assert ss.spec_string() == "avoid:1/modp<=5"
    co = specs.parse_set_spec("avoid:1/modp<=10,coprime=6", 10**4)
    assert co.cond.exclusions == ((5, (1,)), (7, (1,)))
    with pytest.raises(ValueError):
        specs.parse_set_spec("avoid:1/modp<=5")  # needs x


def test_parse_set_spec_explicit_inline_and_file(tmp_path):
    ss = specs.parse_set_spec("explicit:3:1,2;5:2")
    assert ss.cond.exclusions == ((3, (1, 2)), (5, (2,)))
    assert ss.spec_string() == "explicit:3:1,2;5:2"
    path = tmp_path / "cond.txt"
    path.write_text("3:1,2\n5:2\n")
    sf = specs.parse_set_spec(f"explicit:{path}")
    assert sf.cond == ss.cond


def test_parse_set_spec_errors():
    for bad in ("avoid:1/xx", "sp:1", "qf:1,0", "mystery:1", "explicit:4:1",
                "explicit:3:1;3:2"):
        with pytest.raises(ValueError):
            specs.parse_set_spec(bad, 100)


def test_parse_explicit_file_rejects_a_prime_listed_twice(tmp_path):
    # as an inline spec does, rather than keeping the last line
    path = tmp_path / "excl.txt"
    path.write_text("3:1\n5:2\n3:2\n")
    with pytest.raises(ValueError, match=r"prime 3 listed twice$"):
        specs.parse_set_spec(f"explicit:{path}", 100)


def test_set_spec_realize():
    from siftlab.sift import exact_shifted_primes, sift

    ss = specs.parse_set_spec("explicit:2:1")
    assert np.array_equal(
        ss.realize(50).window(0, 51), sift(50, ss.cond).window(0, 51)
    )
    sp = specs.parse_set_spec("sp:1,1")
    assert np.array_equal(
        sp.realize(50).window(0, 51), exact_shifted_primes(1, 1, 50).window(0, 51)
    )
    qs = specs.parse_set_spec("qf:1,0,1,shift=-1")
    got = qs.realize(50)
    assert got.count > 0


# --------------------------------------------------------------------- cli

def _run(capsys, argv):
    code = cli.dispatch(argv)
    assert code == 0
    return capsys.readouterr().out


def test_cli_primes_golden(capsys):
    out = _run(capsys, ["primes", "--x", "1000"])
    assert out == (
        "x,pi,mertens,hr_constant\n"
        "1000,168,2.198080127175088,0.8665129205816644\n"
    )


def test_cli_hist_golden(capsys):
    out = _run(capsys, ["hist", "--x", "10"])
    lines = out.splitlines()
    assert lines[0] == "experiment,x,f,g,E,sieve,k,mass,bound,ratio"
    assert len(lines) == 4
    assert lines[1].startswith("hist,10,one,omega,all,none,0,1.0,")
    k, mass, bound, ratio = lines[2].split(",")[6:]
    assert (k, mass) == ("1", "7.0")
    assert float(mass) / float(bound) == pytest.approx(float(ratio), rel=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cli_headers_all_subcommands(capsys):
    cases = {
        ("primes", "--x", "100"): "x,pi,mertens,hr_constant",
        ("hist", "--x", "10"): "experiment,x,f,g,E,sieve,k,mass,bound,ratio",
        ("hr-check", "--x", "10"): "experiment,x,f,g,E,sieve,k,mass,bound,ratio",
        ("mgf", "--x", "10", "--z", "1.0"): "x,f,g,E,sieve,z,value,bound,ratio",
        ("tails", "--x", "100", "--delta", "0.5"): (
            "x,f,g,E,sieve,delta,M,mass_low,mass_high,"
            "bound_low,bound_high,ratio_low,ratio_high"
        ),
        ("dev", "--x", "100", "--lambda", "0.4"): (
            "x,lambda,M,mass_low,mass_high,normalized,gauss_ref"
        ),
        ("table", "--n", "10"): "N,A,ford_ratio",
        ("table", "--n", "10", "--shift", "1"): "N,A,ford_ratio,s,A_shifted",
        ("table-sifted", "--x", "100"): (
            "x,f,sieve,value,R,M,regime,bound_le_half,ratio_le_half,"
            "bound_mid,ratio_mid"
        ),
        ("spd", "--a", "1", "--u", "1", "--v", "-1", "--x", "20", "--y", "3"): (
            "a,u,v,x,y,count,normalized,bound_ratio"
        ),
        ("lambda-image", "--u", "1", "--v", "0", "--x", "100"): (
            "u,v,x,count,pi,normalized"
        ),
        ("sp-dev", "--a", "1", "--b", "1", "--x", "100", "--lambda", "0.4"): (
            "x,lambda,M,mass_low,mass_high,normalized,gauss_ref"
        ),
        ("qf-dev", "--form", "1,0,1", "--e", "kron:-4:+1", "--x", "100",
         "--lambda", "0.4"): "x,lambda,M,mass_low,mass_high,normalized,gauss_ref",
        ("jointpoly", "--q", "1,1", "--x", "100", "--y", "97", "--k", "2"): (
            "x,y,polys,targets,count"
        ),
        ("apcount", "--x", "100", "--d", "4", "--a", "1", "--k", "2"): (
            "x,d,a,g,k,count"
        ),
        ("egps", "--x", "100", "--lambda", "1.0"): (
            "x,f,lambda,mass,total,normalized,excluded,unfactored"
        ),
        ("sigma-div", "--x", "100", "--p", "3"): "x,p,f,eps,value,bound,ratio",
        ("s-div", "--x", "100", "--y", "20", "--z", "10", "--d", "5"): (
            "x,y,z,d,f,value"
        ),
        ("omega-gcd", "--x", "100"): "x,f,value,bound,ratio",
        ("constants", "--x", "100"): "name,value,note",
    }
    for argv, header in cases.items():
        out = _run(capsys, list(argv))
        assert out.splitlines()[0] == header, argv


def test_cli_table_values(capsys):
    out = _run(capsys, ["table", "--n", "50"])
    assert out.splitlines()[1].split(",")[:2] == ["50", "800"]
    out2 = _run(capsys, ["table", "--n", "30", "--shift", "1"])
    row = out2.splitlines()[1].split(",")
    assert row[0] == "30" and int(row[4]) <= int(row[1])


def test_cli_jointpoly_value(capsys):
    out = _run(capsys, ["jointpoly", "--q", "1,1", "--x", "100", "--y", "97", "--k", "2"])
    assert out.splitlines()[1] == '100,97,"1,1",2,16'


def test_cli_sigma_div_accepts_a_prime_above_x(capsys, monkeypatch):
    # the prime table stops at x, but p = 127 is prime and divides sigma(64) = 127
    out = _run(capsys, ["sigma-div", "--x", "100", "--p", "127"])
    assert out.splitlines()[1].split(",")[4] == "1.0"
    monkeypatch.setattr(sys, "argv", ["siftlab", "sigma-div", "--x", "100", "--p", "4"])
    with pytest.raises(SystemExit) as ei:
        cli.main()
    assert ei.value.code == 2
    assert "4 is not prime" in capsys.readouterr().err


def test_cli_s_div_builds_primes_to_the_root_of_x(capsys, monkeypatch):
    # the lpf windows and the weights read no prime above isqrt(x), and the
    # --budget-mb plan charges that table
    built, planned = [], []
    init, check = arith.PrimeTable.__init__, cli._check_budget

    def spy_init(self, n):
        built.append(n)
        init(self, n)

    def spy_check(args, *rest, prime_limit=None, **kw):
        planned.append(prime_limit)
        check(args, *rest, prime_limit=prime_limit, **kw)

    monkeypatch.setattr(arith.PrimeTable, "__init__", spy_init)
    monkeypatch.setattr(cli, "_check_budget", spy_check)
    run = ["s-div", "--x", "30000", "--y", "1000", "--z", "10", "--d", "3"]
    for f in ("one", "musq"):
        _run(capsys, [*run, "--f", f])
    assert built == planned == [173, 173]


def test_cli_lambda_image_value(capsys):
    out = _run(capsys, ["lambda-image", "--u", "1", "--v", "0", "--x", "100"])
    assert out.splitlines()[1] == "1,0,100,1,25,0.04"


def test_cli_egps_rows(capsys):
    out = _run(capsys, ["egps", "--x", "100", "--lambda", "1.0"])
    lines = out.splitlines()
    assert len(lines) == 8  # requested threshold plus six grid rows
    first = lines[1].split(",")
    assert first[3] == "31.0" and first[4] == "100.0"


def test_cli_egps_grid_rows_print_exact_masses(capsys):
    # each grid row prints its own mass, not normalized * total
    out = _run(capsys, ["egps", "--x", "5000", "--lambda", "1.0"])
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[2], r[3]) for r in rows] == [
        ("1.0", "1012.0"), ("0.5", "3097.0"), ("1.0", "1012.0"), ("1.5", "8.0"),
        ("2.0", "0.0"), ("2.5", "0.0"), ("3.0", "0.0"),
    ]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cli_dev_thread_invariant(capsys):
    a = _run(capsys, ["dev", "--x", "5000", "--lambda", "2.0", "--threads", "1"])
    b = _run(capsys, ["dev", "--x", "5000", "--lambda", "2.0", "--threads", "8"])
    assert a == b


def test_cli_out_matches_stdout(capsys, tmp_path):
    stdout_text = _run(capsys, ["primes", "--x", "1000"])
    path = tmp_path / "t.csv"
    _run(capsys, ["primes", "--x", "1000", "--out", str(path)])
    assert path.read_text() == stdout_text


def test_cli_manifest(capsys, tmp_path):
    out_path = tmp_path / "t.csv"
    man_path = tmp_path / "m.json"
    _run(capsys, [
        "primes", "--x", "100", "--out", str(out_path), "--manifest", str(man_path),
    ])
    man = json.loads(man_path.read_text())
    assert man["subcommand"] == "primes"
    assert man["params"]["x"] == 100
    assert man["version"] == __version__
    assert man["threads"] == 1
    assert man["rows"] == 1
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert man["output_sha256"] == digest


def test_cli_jsonl(capsys):
    out = _run(capsys, ["primes", "--x", "1000", "--format", "jsonl"])
    lines = out.splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["x"] == 1000 and rec["pi"] == 168
    assert rec["hr_constant"] == pytest.approx(0.8665129205816644)


def _strict_json(line: str) -> dict:
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(line, parse_constant=refuse)


def test_cli_jsonl_writes_non_finite_floats_as_strings(capsys):
    # E holds no prime up to x, so M = 0 and the degenerate report's Gaussian reference is inf
    argv = ["dev", "--x", "500", "--e", "interval:1000:2000", "--lambda", "1.0"]
    rec = _strict_json(_run(capsys, argv + ["--format", "jsonl"]).splitlines()[0])
    assert rec["gauss_ref"] == "inf" and rec["M"] == 0.0 and rec["normalized"] == 1.0
    assert _run(capsys, argv).splitlines()[1].split(",")[-1] == "inf"


@pytest.mark.parametrize("argv", [["egps", "--x", "3000", "--lambda", "1.0"],
                                  ["sigma-div", "--x", "3000", "--p", "3"],
                                  ["s-div", "--x", "3000", "--y", "100", "--z", "10", "--d", "3"],
                                  ["omega-gcd", "--x", "3000"]], ids=lambda a: a[0])
def test_cli_sigma_family_prints_the_canonical_weight_spec(argv, capsys):
    # as hist does: zomega:1.30 is printed as zomega:1.3, with the same bytes otherwise
    loose = _run(capsys, argv + ["--f", "zomega:1.30"])
    assert "zomega:1.30" not in loose
    assert loose == _run(capsys, argv + ["--f", "zomega:1.3"])
    col = loose.splitlines()[0].split(",").index("f")
    assert {line.split(",")[col] for line in loose.splitlines()[1:]} == {"zomega:1.3"}


def test_cli_budget_sec(tmp_path):
    out_path = tmp_path / "never.csv"
    with pytest.raises(ResourceBudgetError):
        cli.dispatch(["primes", "--x", "1000", "--budget-sec", "0.0",
                      "--out", str(out_path)])
    assert not out_path.exists()


def test_cli_budget_mb(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(bulk, "stream_windows", no_work)
    with pytest.raises(ResourceBudgetError):
        cli.dispatch(["table", "--n", "100000", "--budget-mb", "0"])


HIST_FAMILY = [["hist", "--f", "musq"], ["hr-check", "--f", "musq"],
               ["tails", "--delta", "0.5", "--f", "musq"], ["dev", "--lambda", "0.5"],
               ["mgf", "--z", "1.5", "--f", "zomega:1.3"]]


@pytest.mark.parametrize("argv", HIST_FAMILY, ids=[a[0] for a in HIST_FAMILY])
def test_cli_hist_family_budget_mb_before_the_table(argv, capsys, monkeypatch):
    def no_table(limit):
        raise AssertionError("PrimeTable built before the budget check")

    monkeypatch.setattr(cli, "PrimeTable", no_table)
    monkeypatch.setattr(sys, "argv", ["siftlab", *argv, "--x", "10000000", "--budget-mb", "1"])
    with pytest.raises(SystemExit) as ei:
        cli.main()
    assert ei.value.code == 3
    err = capsys.readouterr().err
    assert f"{argv[0]} plans " in err and "per integer of [0, 10000000]" in err
    assert "over the budget of 1 MiB" in err


@pytest.mark.parametrize("argv", HIST_FAMILY, ids=[a[0] for a in HIST_FAMILY])
def test_cli_hist_family_generous_budget_same_bytes(argv, capsys):
    run = [*argv, "--x", "30000"]
    assert _run(capsys, run + ["--budget-mb", "4096"]) == _run(capsys, run)


def _exit_code(argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["siftlab", *argv])
    with pytest.raises(SystemExit) as ei:
        cli.main()
    return ei.value.code


def test_cli_hist_congruence_set_plans_no_flags_or_bitmap(capsys, monkeypatch):
    # a congruence set is sieved per window and the table keeps only its
    # primes: the plan is the primes and one window, nothing per integer of x
    run = ["hist", "--x", "2000000", "--sieve", "explicit:2:1"]
    with pytest.raises(ResourceBudgetError) as ei:
        cli.dispatch([*run, "--budget-mb", "0"])
    plan = int(re.search(r"plans (\d+) bytes", str(ei.value)).group(1))
    assert "(0 per integer of [0, 2000000]" in str(ei.value)
    assert plan == 8 * bulk.prime_count_bound(2000000) + 24 * bulk.DEFAULT_WINDOW
    mb = -(-plan >> 20)  # the smallest budget that holds the plan
    assert _exit_code([*run, "--budget-mb", str(mb)], monkeypatch) == 0
    out = capsys.readouterr().out
    assert _exit_code([*run, "--budget-mb", str(mb - 1)], monkeypatch) == 3
    assert "over the budget" in capsys.readouterr().err
    assert out == _run(capsys, run)


EXACT_DEV = [["sp-dev", "--a", "1", "--b", "1", "--lambda", "0.3"],
             ["qf-dev", "--form", "1,0,1", "--lambda", "0.3"],
             ["qf-dev", "--form", "1,0,1", "--shift", "-1", "--lambda", "0.3"]]


@pytest.mark.parametrize("argv", EXACT_DEV, ids=["sp-dev", "qf-dev", "qf-dev-shift"])
def test_cli_exact_set_dev_budget_mb_before_the_set(argv, capsys, monkeypatch):
    def no_set(*args, **kwargs):
        raise AssertionError("exact set or prime table built before the budget check")

    for name in ("exact_shifted_primes", "exact_qf_values", "exact_qf_shifted"):
        monkeypatch.setattr(sift, name, no_set)
        monkeypatch.setattr(specs, name, no_set)  # SetSpec.realize builds the sets
    monkeypatch.setattr(arith, "PrimeTable", no_set)
    monkeypatch.setattr(cli, "PrimeTable", no_set)
    assert _exit_code([*argv, "--x", "1000000", "--budget-mb", "1"], monkeypatch) == 3
    err = capsys.readouterr().err
    assert f"{argv[0]} plans " in err and "(0 per integer of [0, 1000000]" in err
    assert "over the budget of 1 MiB" in err


# commands over a set: each reads one prime table, to x = 20000, whatever the set; an sp:
# or shifted qf: set sieves the primes it reads itself, window by window
ONE_TABLE = [["sp-dev", "--a", "1", "--b", "-1", "--f", "zomega:1.3", "--lambda", "0.5"],
             ["sp-dev", "--a", "2", "--b", "-1", "--f", "musq", "--g", "bigomega",
              "--e", "mod:4:1", "--lambda", "0.5"],
             ["qf-dev", "--form", "1,0,1", "--shift", "-1", "--lambda", "0.5"],
             ["qf-dev", "--form", "1,1,2", "--g", "bigomega", "--lambda", "1.0"],
             ["dev", "--sieve", "sp:1,-1", "--lambda", "1.0"],
             ["hist", "--sieve", "qf:1,0,1,shift=1"],
             ["table-sifted", "--sieve", "qf:1,0,1,shift=2", "--f", "musq"],
             ["table-sifted", "--sieve", "explicit:3:1"]]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("argv", ONE_TABLE, ids=[" ".join(a[:3]) for a in ONE_TABLE])
def test_cli_set_commands_build_one_prime_table_as_planned(argv, capsys, monkeypatch):
    built, planned = [], []
    init, check = arith.PrimeTable.__init__, cli._check_budget

    def spy_init(self, n):
        built.append(n)
        init(self, n)

    def spy_check(args, *rest, prime_limit=None, **kw):
        planned.append(max(args.x, 2) if prime_limit is None else prime_limit)
        check(args, *rest, prime_limit=prime_limit, **kw)

    monkeypatch.setattr(arith.PrimeTable, "__init__", spy_init)
    monkeypatch.setattr(cli, "_check_budget", spy_check)
    _run(capsys, [*argv, "--x", "20000", "--budget-mb", "4096"])
    assert built == planned == [20000]


@pytest.mark.parametrize("argv", EXACT_DEV, ids=["sp-dev", "qf-dev", "qf-dev-shift"])
def test_cli_exact_set_dev_generous_budget_same_bytes(argv, capsys):
    run = [*argv, "--x", "30000"]
    assert _run(capsys, run + ["--budget-mb", "4096"]) == _run(capsys, run)


SIGMA_FAMILY = [["egps", "--lambda", "2.0"], ["sigma-div", "--p", "3"],
                ["s-div", "--y", "1000", "--z", "10", "--d", "3", "--f", "musq"], ["omega-gcd"]]


@pytest.mark.parametrize("argv", SIGMA_FAMILY, ids=[a[0] for a in SIGMA_FAMILY])
def test_cli_sigma_family_budget_mb_before_any_window(argv, capsys, monkeypatch):
    def no_window(*args, **kwargs):
        raise AssertionError("sigma window run before the budget check")

    monkeypatch.setattr(bulk, "sigma_window", no_window)
    monkeypatch.setattr(sys, "argv", ["siftlab", *argv, "--x", "100000", "--budget-mb", "1"])
    with pytest.raises(SystemExit) as ei:
        cli.main()
    assert ei.value.code == 3
    err = capsys.readouterr().err
    assert f"{argv[0]} plans " in err and "per integer of [0, 100000]" in err
    assert "over the budget of 1 MiB" in err


@pytest.mark.parametrize("argv", SIGMA_FAMILY, ids=[a[0] for a in SIGMA_FAMILY])
def test_cli_sigma_family_generous_budget_same_bytes(argv, capsys):
    run = [*argv, "--x", "30000"]
    assert _run(capsys, run + ["--budget-mb", "4096"]) == _run(capsys, run)


SIGMA_MASKS = [["sigma-div", "--p", "3"],
               ["s-div", "--y", "1000", "--z", "10", "--d", "3", "--f", "musq"], ["omega-gcd"],
               ["sigma-div", "--p", "3", "--f", "phioverN"],
               ["s-div", "--y", "1000", "--z", "10", "--d", "3", "--f", "phioverN"],
               ["omega-gcd", "--f", "phioverN"]]
SIGMA_MASKS_IDS = ["sigma-div", "s-div", "omega-gcd",
                   "sigma-div-phioverN", "s-div-phioverN", "omega-gcd-phioverN"]


@pytest.mark.parametrize("argv", SIGMA_MASKS, ids=SIGMA_MASKS_IDS)
def test_cli_sigma_family_peak_within_budget_plan(argv, capsys):
    # the masks, keys and weights are computed window by window, so no array
    # of length x is held and the traced peak of a run stays inside its plan
    run = [*argv, "--x", "4000000", "--threads", "1"]
    with pytest.raises(ResourceBudgetError) as ei:
        cli.dispatch([*run, "--budget-mb", "0"])
    plan = int(re.search(r"plans (\d+) bytes", str(ei.value)).group(1))
    tracemalloc.start()
    try:
        _run(capsys, run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= plan


WINDOWED = [["hist", "--sieve", "explicit:2:1"],
            ["table-sifted", "--f", "musq", "--sieve", "explicit:3:1"],
            ["apcount", "--d", "4", "--a", "1", "--k", "2"],
            ["egps", "--lambda", "2.0"], ["omega-gcd"],
            ["qf-dev", "--form", "1,0,1", "--lambda", "0.3"],
            ["hist", "--e", "mod:4:1"], ["dev", "--lambda", "0.5", "--e", "mod:4:1"],
            ["jointpoly", "--q", "1,1", "--y", "1000000", "--k", "2"],
            ["spd", "--a", "2", "--u", "1", "--v", "1", "--y", "1000"],
            ["lambda-image", "--u", "1", "--v", "-1"], ["primes"], ["constants"],
            ["sp-dev", "--a", "1", "--b", "-1", "--lambda", "0.5"],
            ["dev", "--sieve", "qf:1,0,1,shift=-1", "--lambda", "0.5"]]
WINDOWED_IDS = ["hist", "table-sifted", "apcount", "egps", "omega-gcd", "qf-dev",
                "hist-mod4", "dev-mod4", "jointpoly", "spd", "lambda-image", "primes",
                "constants", "sp-dev", "dev-qf-shift"]


@pytest.mark.parametrize("argv", WINDOWED, ids=WINDOWED_IDS)
def test_cli_windowed_budget_mb_before_any_window(argv, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(cli, "PrimeTable", no_work)
    monkeypatch.setattr(bulk, "primes_upto", no_work)  # constants sieves without a PrimeTable
    monkeypatch.setattr(bulk, "stream_windows", no_work)
    monkeypatch.setattr(sys, "argv", ["siftlab", *argv, "--x", "10000000", "--budget-mb", "1"])
    with pytest.raises(SystemExit) as ei:
        cli.main()
    assert ei.value.code == 3
    err = capsys.readouterr().err
    assert f"{argv[0]} plans " in err and "over the budget of 1 MiB" in err


@pytest.mark.parametrize("argv", WINDOWED, ids=WINDOWED_IDS)
def test_cli_windowed_peak_within_budget_plan(argv, capsys):
    # apcount holds one counts window per thread and primes to isqrt(x);
    # hist and table-sifted the primes to x and, their congruence sets sieved
    # per window, nothing per integer of x; egps holds its 4-bit omega table
    # to Robin's bound and sigma windows, omega-gcd a 4-bit omega table to x
    # and sigma windows; sp-dev and qf-dev primes to x (x + 1 for sp:1,-1 and
    # shift=-1) and no array of length x, a qf: set's window int64 arrays over its
    # rows and a batch of their runs; qf-dev and
    # hist and dev with --e mod:4:1 run counts windows with a selector, which
    # keep their cofactors; jointpoly holds primes to the root of its largest
    # value, a flags window, the values at its primes and a block of remainders;
    # spd and lambda-image their table to u*x, the int64 values and classes, and
    # per window its marks or accumulator and a batch of (class, cofactor) entries;
    # primes its table, the f(p)/p of mertens_sum and the sieve's segment, and constants
    # the primes, their float64 copy and its temporaries
    run = [*argv, "--x", "4000000", "--threads", "1"]
    out = _traced_within_plan(capsys, run)[1]
    assert _run(capsys, run + ["--budget-mb", "4096"]) == out


def _traced_within_plan(capsys, run):
    """(plan, output) of run, once its tracemalloc peak is found within the plan it states."""
    with pytest.raises(ResourceBudgetError) as ei:
        cli.dispatch([*run, "--budget-mb", "0"])
    plan = int(re.search(r"plans (\d+) bytes", str(ei.value)).group(1))
    tracemalloc.start()
    try:
        out = _run(capsys, run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= plan
    return plan, out


@pytest.mark.parametrize("argv", [
    ["--q", "1,1,0,1", "--x", "30000", "--y", "3000", "--k", "2"],
    ["--q", "1,0,1", "--x", "1000000", "--y", "100", "--k", "2", "--threads", "2"],
    ["--q", "-1,2", "--q", "1,1", "--x", "2200000", "--y", "2100000", "--k", "2,2",
     "--threads", "2"],
], ids=["cubic", "few-primes", "three-windows"])
def test_cli_jointpoly_peak_within_budget_plan(argv, capsys):
    # a short range still fills a block of remainders when the primes to the root are many
    run = ["jointpoly", *argv]
    plan, out = _traced_within_plan(capsys, run)
    assert _run(capsys, run + ["--budget-mb", str(-(-plan >> 20))]) == out


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_apcount_budget_plans_counts_windows(threads, capsys):
    # a counts window holds about 4 to 6 bytes per integer, not a mult window's 24
    run = ["apcount", "--d", "4", "--a", "1", "--k", "2", "--g", "bigomega",
           "--x", "4000000", "--threads", threads]
    assert _run(capsys, run + ["--budget-mb", "20"]) == _run(capsys, run)


@pytest.mark.parametrize("x", [16, 100, 5040, 100000])
def test_cli_egps_budget_covers_max_aliquot_sum(x):
    # the plan's omega table reaches Robin's bound on max s(n), never below it; its
    # entries are 4 bits for the odd m, two per planned byte, so a byte covers 4 m
    with pytest.raises(ResourceBudgetError) as ei:
        cli.dispatch(["egps", "--lambda", "2.0", "--x", str(x), "--budget-mb", "0"])
    table = int(re.search(r"(\d+) for other tables", str(ei.value)).group(1))
    s = bulk.sigma_range(x) - np.arange(x + 1)
    assert 4 * table >= int(s[1:].max()) + 1


@pytest.mark.parametrize("argv, over", [
    (["--n", "3000", "--budget-mb", "0"], True),
    (["--n", "3000", "--budget-mb", "5"], True),
    # one 1 MiB window of products, 0.55 MB for its 3000 rows and a 4 MiB row batch
    (["--n", "3000", "--budget-mb", "6"], False),
    (["--n", "3000", "--budget-mb", "6", "--shift", "1"], True),
    (["--n", "3000", "--budget-mb", "7", "--shift", "1"], False),  # and its flags and primes
])
def test_cli_table_budget_counts_window_bytes(argv, over, monkeypatch):
    if over:
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the budget check")

        monkeypatch.setattr(bulk, "stream_windows", no_work)
        with pytest.raises(ResourceBudgetError, match="table plans "):
            cli.dispatch(["table", *argv])
    else:
        assert cli.dispatch(["table", *argv]) == 0


# small valid arguments for each subcommand; one that build_parser() registers without an
# entry here fails the plan test below, so no subcommand can skip its --budget-mb plan
EVERY_SUBCOMMAND = {
    "primes": ["--x", "1000"], "hist": ["--x", "1000"], "hr-check": ["--x", "1000"],
    "mgf": ["--x", "1000", "--z", "1.5"], "tails": ["--x", "1000", "--delta", "0.5"],
    "dev": ["--x", "1000", "--lambda", "0.5"], "table": ["--n", "100"],
    "table-sifted": ["--x", "1000"],
    "spd": ["--a", "1", "--u", "1", "--v", "1", "--x", "1000", "--y", "10"],
    "lambda-image": ["--u", "1", "--v", "-1", "--x", "1000"],
    "sp-dev": ["--a", "1", "--b", "1", "--x", "1000", "--lambda", "0.3"],
    "qf-dev": ["--form", "1,0,1", "--x", "1000", "--lambda", "0.3"],
    "jointpoly": ["--q", "1,1", "--x", "1000", "--y", "100", "--k", "2"],
    "apcount": ["--x", "1000", "--d", "4", "--a", "1", "--k", "2"],
    "egps": ["--x", "1000"], "sigma-div": ["--x", "1000", "--p", "3"],
    "s-div": ["--x", "1000", "--y", "100", "--z", "10", "--d", "3"],
    "omega-gcd": ["--x", "1000"], "constants": ["--x", "1000"],
}
_SUBCOMMANDS = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
def test_cli_every_subcommand_plans_before_any_work(name, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(cli, "PrimeTable", no_work)
    monkeypatch.setattr(bulk, "primes_upto", no_work)
    monkeypatch.setattr(bulk, "stream_windows", no_work)
    assert _exit_code([name, *EVERY_SUBCOMMAND[name], "--budget-mb", "0"], monkeypatch) == 3
    m = re.fullmatch(r"budget exceeded: (\S+) plans (\d+) bytes \((\d+) per integer of "
                     r"\[0, (\d+)\], (\d+) for other tables, (\d+) for the primes, (\d+) for "
                     r"the windows\), over the budget of 0 MiB\n", capsys.readouterr().err)
    assert m is not None and m[1] == name
    need, per_int, x, extra, primes, windows = map(int, m.groups()[1:])
    assert need == per_int * (x + 1) + extra + primes + windows > 0


def test_cli_exit_codes(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["siftlab", "mgf", "--x", "100", "--z", "0"])
    with pytest.raises(SystemExit) as ei:
        cli.main()
    assert ei.value.code == 2
    assert "error:" in capsys.readouterr().err

    monkeypatch.setattr(sys, "argv", ["siftlab", "primes", "--x", "1000",
                                      "--budget-sec", "0.0"])
    with pytest.raises(SystemExit) as ei:
        cli.main()
    assert ei.value.code == 3
    assert "budget" in capsys.readouterr().err

    def boom(header, rows, fmt):
        raise OverflowError("forced")

    monkeypatch.setattr(cli, "render", boom)
    monkeypatch.setattr(sys, "argv", ["siftlab", "primes", "--x", "100"])
    with pytest.raises(SystemExit) as ei:
        cli.main()
    assert ei.value.code == 4
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ("hr-check --x 100 --C inf", "C must be finite"),
    ("hr-check --x 100 --C 1e300", "C = 1e+300 puts the bound of bin 2 outside the doubles"),
    ("mgf --x 100 --z nan", "z must be positive and finite"),
    ("dev --x 100 --lambda inf", "lam must be positive and finite"),
    ("hist --x 100 --beta -1", "beta must be positive and finite"),
    ("hist --x 100 --beta nan", "beta must be positive and finite"),
    ("egps --x 1000 --lambda inf", "lam must be positive and finite"),
    ("egps --x 10000000 --c0 nan", "lam must be positive and finite"),
    ("table-sifted --x 100 --f zomega:0", "prime sum M vanishes"),
    ("table-sifted --x 100 --f zbigomega:0", "prime sum M vanishes"),
    ("hist --x 100 --f zomega:inf", "bad weight spec 'zomega:inf': z must be nonnegative and finite"),
    ("mgf --x 100 --z 1.5 --f zomega:inf", "bad weight spec 'zomega:inf': z must be nonnegative"),
    ("hist --x 100 --f zomega:nan", "bad weight spec 'zomega:nan': z must be nonnegative"),
    ("hist --x 100 --sieve explicit:3:1;3:2", "bad set spec 'explicit:3:1;3:2': prime 3 listed twice"),
])
def test_cli_rejects_a_report_parameter_out_of_range(argv, message, capsys, monkeypatch):
    assert _exit_code(argv.split(), monkeypatch) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_cli_prints_the_weight_it_ran(capsys):
    # two z that :g spells alike print apart, each as it was given
    for z in ("1.23456789", "1.23457"):
        out = _run(capsys, ["mgf", "--x", "1000", "--z", "1.5", "--f", f"zomega:{z}"])
        assert out.splitlines()[1].split(",")[1] == f"zomega:{z}"


def test_cli_hist_zero_mass_bins_past_k_max_do_not_divide(capsys):
    # at x = 100 every bin lies at k <= 3 = int(2M); --beta 200 adds only bins of
    # no mass, whose bounds underflow, so it prints what --beta 2 prints
    wide = _run(capsys, ["hist", "--x", "100", "--beta", "200"])
    assert wide == _run(capsys, ["hist", "--x", "100"])


def test_cli_hist_stops_at_the_last_bin_whatever_beta(capsys):
    # k_max = int(1e300 * M) has 300 digits; the report stops at the largest
    # occupied bin, 3 here, so the run ends at once and prints what --beta 2 prints
    huge = _run(capsys, ["hist", "--x", "100", "--beta", "1e300"])
    assert huge == _run(capsys, ["hist", "--x", "100"])


def test_cli_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.build_parser().parse_args(["primes", "--nope"])
    assert ei.value.code == 2


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.build_parser().parse_args(["--version"])
    assert ei.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_cli_constants_rows(capsys):
    out = _run(capsys, ["constants", "--x", "1000"])
    lines = out.splitlines()
    assert lines[1].split(",")[0] == "eta0"
    from siftlab.table import eta0

    assert float(lines[1].split(",")[1]) == pytest.approx(eta0(), rel=1e-15)
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert "C2_partial" in names
    assert "s_1" in names and "s_5" in names
    assert "Q(0)" in names and "Q(3)" in names


def test_cli_render_formats():
    text = cli.render(["a", "b"], [[True, 0.1], [False, 2]], "csv")
    assert text == "a,b\n1,0.1\n0,2\n"
    jl = cli.render(["a"], [[1]], "jsonl")
    assert jl == '{"a": 1}\n'
    # JSON has no inf or nan: they are written as the CSV writes them
    row = [[-math.inf, math.nan, 1.5, 2]]
    assert cli.render(["a", "b", "c", "d"], row, "csv") == "a,b,c,d\n-inf,nan,1.5,2\n"
    jl = cli.render(["a", "b", "c", "d"], row, "jsonl")
    assert _strict_json(jl) == {"a": "-inf", "b": "nan", "c": 1.5, "d": 2}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cli_qf_dev_default_prime_set_is_the_split_primes(capsys):
    # the default must not include primes that do not split, such as 2 for x^2 + y^2
    base = ["qf-dev", "--form", "1,0,1", "--x", "200000", "--lambda", "0.5"]
    default = _run(capsys, base)
    explicit = _run(capsys, base + ["--e", "kron:-4:+1"])
    assert default == explicit


def test_cli_jointpoly_accepts_negative_leading_coefficient(capsys):
    spaced = _run(capsys, ["jointpoly", "--q", "1,1", "--q", "-1,1",
                           "--x", "20000", "--y", "5000", "--k", "3,3"])
    joined = _run(capsys, ["jointpoly", "--q", "1,1", "--q=-1,1",
                           "--x", "20000", "--y", "5000", "--k", "3,3"])
    assert spaced == joined
    assert spaced.splitlines()[1].split(",")[-1] == "116"


@pytest.mark.parametrize("q", ["7,7", "5,0,5"])
def test_cli_jointpoly_rejects_a_fixed_prime_of_the_content(q, capsys, monkeypatch):
    # 7 and 5 divide every value, and each exceeds its polynomial's degree + 1
    assert _exit_code(["jointpoly", "--q", q, "--x", "1000", "--y", "900", "--k", "2"],
                      monkeypatch) == 2
    assert f"fixed prime factor {q[0]}" in capsys.readouterr().err
