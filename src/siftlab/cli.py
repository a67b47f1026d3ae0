"""Command-line front end.

Every subcommand prints one CSV (or JSON-lines) table with a fixed column
order, shortest round-trip floats, and newline endings, so identical
invocations produce identical bytes regardless of --threads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__, bulk, egps, hist, multfunc, shifted, table
from .arith import PrimeTable
from .errors import ResourceBudgetError
from .primesets import ALL_PRIMES, AllPrimes, KroneckerSign
from .sift import QuadraticForm
from .specs import SetSpec, parse_primeset, parse_set_spec, parse_weight

_TWIN_LIMIT = 10**7

_NEGATIVE_LIST = re.compile(r"-\d+(,-?\d+)*")


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write the table here instead of stdout")
    sub.add_argument("--manifest", help="write a JSON run manifest here")
    sub.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--budget-mb", type=int, default=None)
    sub.add_argument("--budget-sec", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="siftlab",
        description="exact sieve experiments on prime-factor statistics",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = ap.add_subparsers(dest="subcommand", required=True)

    def add(name: str, fn, **flags):
        sub = subs.add_parser(name)
        for flag, spec in flags.items():
            sub.add_argument(flag, **spec)
        _common(sub)
        sub.set_defaults(fn=fn)
        return sub

    X = {"type": int, "required": True}
    W = {"default": "one"}
    G = {"choices": ("omega", "bigomega"), "default": "omega"}
    E = {"default": "all"}
    S = {"default": "none"}

    add("primes", _cmd_primes, **{"--x": X})
    add("hist", _cmd_hist, **{"--x": X, "--f": W, "--g": G, "--e": E, "--sieve": S,
                              "--beta": {"type": float, "default": 2.0}})
    add("hr-check", _cmd_hr_check, **{"--x": X, "--f": W, "--g": G, "--e": E,
                                      "--sieve": S, "--C": {"type": float, "default": None},
                                      "--beta": {"type": float, "default": 2.0}})
    add("mgf", _cmd_mgf, **{"--x": X, "--z": {"type": float, "required": True},
                            "--f": W, "--g": G, "--e": E, "--sieve": S})
    add("tails", _cmd_tails, **{"--x": X, "--delta": {"type": float, "required": True},
                                "--f": W, "--g": G, "--e": E, "--sieve": S})
    add("dev", _cmd_dev, **{"--x": X, "--lambda": {"type": float, "required": True,
                                                   "dest": "lam"},
                            "--f": W, "--g": G, "--e": E, "--sieve": S})
    add("table", _cmd_table, **{"--n": {"type": int, "required": True},
                                "--shift": {"type": int, "default": None}})
    add("table-sifted", _cmd_table_sifted, **{"--x": X, "--f": W, "--sieve": S})
    add("spd", _cmd_spd, **{"--a": {"type": int, "required": True},
                            "--u": {"type": int, "required": True},
                            "--v": {"type": int, "required": True},
                            "--x": X, "--y": {"type": int, "required": True}})
    add("lambda-image", _cmd_lambda_image, **{"--u": {"type": int, "required": True},
                                              "--v": {"type": int, "required": True},
                                              "--x": X})
    add("sp-dev", _cmd_sp_dev, **{"--a": {"type": int, "required": True},
                                  "--b": {"type": int, "required": True},
                                  "--f": W, "--g": G, "--e": E, "--x": X,
                                  "--lambda": {"type": float, "required": True,
                                               "dest": "lam"}})
    add("qf-dev", _cmd_qf_dev, **{"--form": {"required": True},
                                  "--shift": {"type": int, "default": None},
                                  "--g": G, "--x": X,
                                  "--e": {"default": None,
                                          "help": "prime subset (default kron:D:+1)"},
                                  "--lambda": {"type": float, "required": True,
                                               "dest": "lam"}})
    add("jointpoly", _cmd_jointpoly, **{"--q": {"action": "append", "required": True},
                                        "--x": X, "--y": {"type": int, "required": True},
                                        "--k": {"required": True}})
    add("apcount", _cmd_apcount, **{"--x": X, "--d": {"type": int, "required": True},
                                    "--a": {"type": int, "required": True},
                                    "--g": G, "--k": {"type": int, "required": True}})
    add("egps", _cmd_egps, **{"--x": X, "--f": W,
                              "--lambda": {"type": float, "default": None, "dest": "lam"},
                              "--c0": {"type": float, "default": None}})
    add("sigma-div", _cmd_sigma_div, **{"--x": X, "--p": {"type": int, "required": True},
                                        "--f": W, "--eps": {"type": float, "default": 0.5}})
    add("s-div", _cmd_s_div, **{"--x": X, "--y": {"type": int, "required": True},
                                "--z": {"type": int, "required": True},
                                "--d": {"type": int, "required": True}, "--f": W})
    add("omega-gcd", _cmd_omega_gcd, **{"--x": X, "--f": W})
    add("constants", _cmd_constants, **{"--x": {"type": int, "default": _TWIN_LIMIT}})
    return ap


# ----------------------------------------------------------------- handlers

def _cmd_primes(args):
    # the primes to x, mertens_sum's f(p)/p at each of them, and the sieve's segment (traced:
    # 2.6 bytes per integer)
    _check_budget(args, 0, 8 * bulk.prime_count_bound(args.x), window=4)
    t = PrimeTable(max(args.x, 2))
    header = ["x", "pi", "mertens", "hr_constant"]
    row = [args.x, t.pi(args.x),
           multfunc.mertens_sum(multfunc.one(), args.x, table=t),
           multfunc.hr_constant(args.x)]
    return header, [row]


def _check_budget(args, per_int: int, extra: int = 0, prime_limit: int | None = None,
                  window: int = 24, thread: int = 0, x: int | None = None,
                  width: int | None = None) -> None:
    """Raise ResourceBudgetError (exit 3) before any prime table, sieve or window when the
    --budget-mb plan exceeds the budget.  The plan has four terms:

    - per_int bytes per integer of [0, x] (x defaults to --x), such as a histogram's
      weights;
    - extra bytes for other tables, such as egps's omega table over [0, max s(n)];
    - 8 bytes per prime up to prime_limit (default x), the table's buffer of
      bulk.prime_count_bound entries;
    - per thread, window bytes per integer of one window of width integers (default
      min(x, 2^20)) and thread bytes more.  24 per integer by default, a loose upper
      bound on a mult window's working set (traced: about 6 to 13 beside the output).
    """
    if args.budget_mb is None:
        return
    x = max(args.x if x is None else x, 2)
    primes = 8 * bulk.prime_count_bound(x if prime_limit is None else prime_limit)
    windows = max(args.threads, 1) * (
        window * (min(x, bulk.DEFAULT_WINDOW) if width is None else width) + thread)
    need = per_int * (x + 1) + extra + primes + windows
    if need > args.budget_mb << 20:
        raise ResourceBudgetError(
            f"{args.subcommand} plans {need} bytes ({per_int} per integer of [0, {x}], "
            f"{extra} for other tables, {primes} for the primes, {windows} for the windows), "
            f"over the budget of {args.budget_mb} MiB")


def _width(y: int) -> tuple[int, int]:
    """(n, m): the width n = min(max(y, 2), 2^20) of a window over y integers, and a bound m
    on the primes among any n of them, 2n / log n + 1 (Montgomery and Vaughan)."""
    n = min(max(y, 2), bulk.DEFAULT_WINDOW)
    return n, min(n, int(2 * n / math.log(n)) + 1)


def _plan_set(args, f, ss, E=ALL_PRIMES) -> None:
    """The --budget-mb plan of a command over the set: the one prime table to x it reads,
    whatever the set; the histogram's weight array of length x + 1 unless f is None
    (weights per window) or one; and the counts windows (28 bytes per window integer when
    E selects primes: they keep their cofactors).  An sp: or shifted qf: set sieves the
    primes it reads per window, and its image, flags and flag sieve fit in those bytes
    (traced for sp:1,-1 at 2^20 near 1e8: 2.2 per integer, 4.0 with the counts).  A qf:
    set's window holds int64 arrays over its rows X <= isqrt(4cx / d) (traced: 192
    bytes per row) and a batch of their runs."""
    rows = 0
    if ss.kind == "qf":
        rows = math.isqrt(4 * ss.c * max(args.x, 2) // -QuadraticForm(ss.a, ss.b, ss.c).disc) + 1
    _check_budget(args, 0 if f is None or f.is_one() else 8,
                  window=24 if isinstance(E, AllPrimes) else 28,
                  thread=200 * rows + _BATCH * (rows > 0))


def _hist_setup(args):
    """The parse step of the histogram family: --f, --e and --sieve."""
    return parse_weight(args.f), parse_primeset(args.e), parse_set_spec(args.sieve, args.x)


def _histogram(args, f, E, ss):
    """The set's histogram, planned, realized and counted."""
    _plan_set(args, f, ss, E)
    return hist.weighted_histogram(ss.realize(args.x), f, args.g, E, args.threads)


def _hist_rows(args, variant: str, C: float | None, beta: float):
    f, E, ss = _hist_setup(args)
    h = _histogram(args, f, E, ss)
    rep = hist.hr_ratio(h, C=C, beta=beta)
    use_prime = variant == "prime" and rep.prime_variant is not None
    ratios = rep.prime_variant if use_prime else rep.general
    rows = []
    for k in sorted(h.bins):
        mass = h.bins[k]
        bound = [mass / ratios[k], ratios[k]] if k in ratios else ["", ""]
        rows.append([args.subcommand, args.x, f.spec_string(), args.g,
                     E.spec_string(), ss.spec_string(), k, mass] + bound)
    header = ["experiment", "x", "f", "g", "E", "sieve", "k", "mass", "bound", "ratio"]
    return header, rows


def _cmd_hist(args):
    return _hist_rows(args, "general", None, args.beta)


def _cmd_hr_check(args):
    return _hist_rows(args, "prime", args.C, args.beta)


def _cmd_mgf(args):
    f, E, ss = _hist_setup(args)
    rep = hist.mgf_sum(_histogram(args, f, E, ss), args.z)
    header = ["x", "f", "g", "E", "sieve", "z", "value", "bound", "ratio"]
    return header, [[args.x, f.spec_string(), args.g, E.spec_string(),
                     ss.spec_string(), args.z, rep.value, rep.bound, rep.ratio]]


def _cmd_tails(args):
    f, E, ss = _hist_setup(args)
    rep = hist.tail_masses(_histogram(args, f, E, ss), args.delta)
    header = ["x", "f", "g", "E", "sieve", "delta", "M", "mass_low", "mass_high",
              "bound_low", "bound_high", "ratio_low", "ratio_high"]
    return header, [[args.x, f.spec_string(), args.g, E.spec_string(),
                     ss.spec_string(), args.delta, rep.M, rep.mass_low,
                     rep.mass_high, rep.bound_low, rep.bound_high,
                     rep.ratio_low, rep.ratio_high]]


def _dev(args, h):
    """The deviation row of g over the set, read from its histogram h."""
    rep = hist.deviation(h, args.lam)
    return (["x", "lambda", "M", "mass_low", "mass_high", "normalized", "gauss_ref"],
            [[rep.x, rep.lam, rep.M, rep.mass_low, rep.mass_high, rep.normalized,
              rep.gauss_ref]])


def _cmd_dev(args):
    return _dev(args, _histogram(args, *_hist_setup(args)))


# a batch of at most bulk.CHUNK entries and its scratch: at most 8 bytes in each of 8 arrays
_BATCH = 64 * bulk.CHUNK


def _cmd_table(args):
    # per worker a bool window of products, its rows (64 bytes each, and 120 more for a
    # strided row's bounds as Python ints) and a row batch; with --shift also its prime
    # flags and, for primes above width >> 7, the flag sieve's batch (8 bytes per cell, 64
    # per prime); and the primes up to the root of N^2 + |shift|, 8 bytes each
    cells = args.n * args.n
    w = min(cells, bulk.DEFAULT_WINDOW)
    root = 0 if args.shift is None else math.isqrt(cells + abs(args.shift)) + 1
    big = root > w >> 7
    rows = 64 * args.n + 120 * min(args.n, w >> table.DENSE_SHIFT) + _BATCH
    _check_budget(args, 0, prime_limit=root, x=cells, width=w,
                  window=1 if args.shift is None else 2 + 8 * big,
                  thread=rows + 64 * big * bulk.prime_count_bound(root))
    A, As = table.table_count(args.n, args.shift, args.threads)
    fr = table.ford_ratio(args.n, A) if args.n >= 3 else ""
    if args.shift is None:
        return ["N", "A", "ford_ratio"], [[args.n, A, fr]]
    return (["N", "A", "ford_ratio", "s", "A_shifted"],
            [[args.n, A, fr, args.shift, As]])


def _cmd_table_sifted(args):
    f, ss = parse_weight(args.f), parse_set_spec(args.sieve, args.x)
    _plan_set(args, None, ss)  # weights come window by window
    rep = table.sifted_table_sum(ss.realize(args.x), f, args.threads)
    header = ["x", "f", "sieve", "value", "R", "M", "regime",
              "bound_le_half", "ratio_le_half", "bound_mid", "ratio_mid"]
    blank = lambda v: "" if v is None else v
    return header, [[args.x, f.spec_string(), ss.spec_string(), rep.value, rep.R,
                     rep.M, rep.regime, blank(rep.bound_le_half),
                     blank(rep.ratio_le_half), blank(rep.bound_mid),
                     blank(rep.ratio_mid)]]


def _cmd_spd(args):
    # the table to u*x + |v| + |a|; the int64 m = |u*p + v| for p <= x and classes q - a
    # for q up to the table's end (9 bytes each: a copy is made through a bool mask); per
    # thread a bool window of marks, 25 bytes for each of its m, a batch, and 96 bytes
    # per integer up to the table's root (cofactor bounds, strided classes as Python ints)
    limit = args.u * args.x + abs(args.v) + abs(args.a) + 1
    n, m = _width(limit)
    _check_budget(args, 0, 8 * bulk.prime_count_bound(args.x) + 9 * bulk.prime_count_bound(limit),
                  prime_limit=limit, window=1, width=n,
                  thread=25 * m + _BATCH + 96 * (math.isqrt(limit) + 1))
    rep = shifted.shifted_divisor_count(
        args.a, args.u, args.v, args.x, args.y, threads=args.threads
    )
    header = ["a", "u", "v", "x", "y", "count", "normalized", "bound_ratio"]
    return header, [[rep.a, rep.u, rep.v, rep.x, rep.y, rep.count,
                     rep.normalized, rep.bound_ratio]]


def _cmd_lambda_image(args):
    # as spd, with the table to max((x - v) / u, x + 1), m = u*p + v <= x, the classes
    # q - 1 for q <= x + 1 and the few others, and per thread a uint32 accumulator below
    # 2**32 (int64 above) and the bool mask of its m
    p_hi = (args.x - args.v) // max(args.u, 1)
    limit = max(p_hi, args.x + 1)
    n, m = _width(limit)
    classes = bulk.prime_count_bound(args.x + 1) + args.x.bit_length() + math.isqrt(args.x) + 1
    _check_budget(args, 0, 8 * bulk.prime_count_bound(p_hi) + 9 * classes, prime_limit=limit,
                  window=5 if args.x < 1 << 32 else 9, width=n,
                  thread=25 * m + _BATCH + 96 * (math.isqrt(limit) + 1))
    count, pi = shifted.lambda_image_intersection(
        args.u, args.v, args.x, threads=args.threads
    )
    header = ["u", "v", "x", "count", "pi", "normalized"]
    return header, [[args.u, args.v, args.x, count, pi,
                     count / pi if pi else ""]]


def _cmd_sp_dev(args):
    f, E = parse_weight(args.f), parse_primeset(args.e)
    return _dev(args, _histogram(args, f, E, SetSpec(kind="sp", a=args.a, b=args.b)))


def _check_split(disc: int, E, primes: np.ndarray) -> None:
    """Raise ValueError if a prime of E among primes does not split for disc.  A call
    of its own, so that none of its arrays lives on into the report."""
    sel = primes[np.asarray(E.mask(primes), dtype=bool)]
    bad = sel[~KroneckerSign(disc, 1).mask(sel)]
    if bad.size:
        raise ValueError(f"prime {bad[0]} in E does not split: kronecker({disc}, {bad[0]}) != +1")


def _cmd_qf_dev(args):
    a, b, c = (int(tok) for tok in args.form.split(","))
    form = QuadraticForm(a, b, c)
    if args.e is None:
        args.e = f"kron:{form.disc}:+1"
    f, E = multfunc.one(), parse_primeset(args.e)
    h = _histogram(args, f, E, SetSpec(kind="qf", a=a, b=b, c=c, shift=args.shift))
    _check_split(form.disc, E, h.table.primes[: h.table.pi(args.x)])
    return _dev(args, h)


def _cmd_jointpoly(args):
    polys = [tuple(int(tok) for tok in q.split(",")) for q in args.q]
    targets = tuple(int(tok) for tok in args.k.split(","))
    # the primes to the trial root; per thread a flags window of n integers, up to 64 bytes
    # for each of its m primes and a block of at most shifted.BLOCK entries, or one
    # prime's: int64 remainders, their bool test, hit indices.  Before the windows, the
    # sieve of those primes holds a segment of s integers and its primes' positions, twice
    root = shifted.trial_root(polys, args.x)
    (n, m), (s, ms) = _width(args.y), _width(root + 1)
    block = min(m * bulk.prime_count_bound(root), max(shifted.BLOCK, m))
    _check_budget(args, 0, s + 16 * ms, prime_limit=root, window=1, width=n,
                  thread=64 * m + 10 * block)
    count = shifted.joint_poly_omega(polys, args.x, args.y, targets, args.threads)
    header = ["x", "y", "polys", "targets", "count"]
    return header, [[args.x, args.y, "|".join(args.q), args.k, count]]


def _cmd_apcount(args):
    # a bigomega counts window holds a uint32 word and a uint8 count per integer
    _check_budget(args, 0, prime_limit=max(math.isqrt(max(args.x, 0)), 2), window=7)
    count = shifted.ap_prime_factor_count(
        args.x, args.d, args.a, args.g, args.k, threads=args.threads
    )
    header = ["x", "d", "a", "g", "k", "count"]
    return header, [[args.x, args.d, args.a, args.g, args.k, count]]


def _cmd_egps(args):
    # no array of length x: the omega table over [0, S], S >= max s(n), 4 bits per odd m,
    # its primes to isqrt(S), and per thread a sigma window (see _cmd_sigma_div)
    f, top = parse_weight(args.f), egps.aliquot_bound(args.x)
    _check_budget(args, 0, top // 4 + 1, prime_limit=math.isqrt(top),
                  window=24 if f.is_one() else 34)
    rep = egps.egps_deviation(args.x, f, lam=args.lam, c0=args.c0, threads=args.threads)
    header = ["x", "f", "lambda", "mass", "total", "normalized",
              "excluded", "unfactored"]
    rows = [[args.x, f.spec_string(), rep.lam, rep.mass, rep.total, rep.normalized,
             rep.excluded, rep.unfactored]]
    for (lam, norm), mass in zip(rep.grid, rep.grid_mass):
        rows.append([args.x, f.spec_string(), lam, mass, rep.total, norm,
                     rep.excluded, rep.unfactored])
    return header, rows


def _cmd_sigma_div(args):
    f = parse_weight(args.f)
    # the primes to x; per thread a sigma window (traced: 17 bytes per integer with its
    # keys, and the last window's, in flight) and a weight's mult window (32 in all)
    _check_budget(args, 0, window=24 if f.is_one() else 34)
    rep = egps.count_p_divides_sigma(args.x, args.p, f, args.eps, threads=args.threads)
    header = ["x", "p", "f", "eps", "value", "bound", "ratio"]
    return header, [[args.x, args.p, f.spec_string(), args.eps, rep.value, rep.bound,
                     rep.ratio]]


def _cmd_s_div(args):
    f = parse_weight(args.f)
    # the primes to isqrt(x); per thread a sigma window that also holds n and lpf as
    # int64 (traced: 26 bytes per integer, 34 with a weight's mult window)
    _check_budget(args, 0, prime_limit=max(math.isqrt(max(args.x, 0)), 2),
                  window=28 if f.is_one() else 36)
    value = egps.count_d_divides_s(args.x, args.y, args.z, args.d, f, threads=args.threads)
    header = ["x", "y", "z", "d", "f", "value"]
    return header, [[args.x, args.y, args.z, args.d, f.spec_string(), value]]


def _cmd_omega_gcd(args):
    f = parse_weight(args.f)
    # the primes, and the omega table to x at 4 bits per odd m; per thread a sigma window
    # (as sigma-div)
    _check_budget(args, 0, max(args.x, 0) // 4 + 1, window=24 if f.is_one() else 34)
    rep = egps.mean_omega_gcd_sigma(args.x, f, threads=args.threads)
    header = ["x", "f", "value", "bound", "ratio"]
    blank = lambda v: "" if v is None else v
    return header, [[args.x, f.spec_string(), rep.value, blank(rep.bound),
                     blank(rep.ratio)]]


def _cmd_constants(args):
    # the primes to x, their float64 copy and two temporaries of its size, and the sieve's
    # segment
    _check_budget(args, 0, 24 * bulk.prime_count_bound(args.x), window=4)
    rows = [["eta0", table.eta0(), "table-density exponent"]]
    odd = bulk.primes_upto(args.x)[1:].astype(np.float64)
    c2 = 2.0 * float(np.prod(1.0 - 1.0 / (odd - 1.0) ** 2))
    rows.append(["C2_partial", c2, f"over p <= {args.x}; tail omitted"])
    for v in range(1, 6):
        rows.append([f"s_{v}", 1.0 + 2.0 / (math.exp(0.53 / v) - 1.0),
                     "sieve-level exponent"])
    for y in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        rows.append([f"Q({y:g})", hist.q_rate(y), "deviation rate"])
    return ["name", "value", "note"], rows


# -------------------------------------------------------------------- emit

def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render(header: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "jsonl":
        # a non-finite float is written as the CSV writes it, since JSON has no such number
        out = [json.dumps({h: _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v
                           for h, v in zip(header, row)}, separators=(", ", ": "))
               for row in rows]
        return "\n".join(out) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join `--flag -1,1` into `--flag=-1,1`; argparse reads -1,1 as an unknown option."""
    out: list[str] = []
    for tok in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and _NEGATIVE_LIST.fullmatch(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def dispatch(argv: list[str]) -> int:
    args = build_parser().parse_args(_attach_negative_values(argv))
    start = time.monotonic()
    header, rows = args.fn(args)
    text = render(header, rows, args.format)
    elapsed = time.monotonic() - start
    if args.budget_sec is not None and elapsed > args.budget_sec:
        raise ResourceBudgetError(
            f"run took {elapsed:.2f}s, over the budget of {args.budget_sec:.2f}s"
        )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.manifest:
        params = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("fn",) and not callable(v)
        }
        manifest = {
            "subcommand": args.subcommand,
            "params": params,
            "version": __version__,
            "threads": args.threads,
            "wall_time_sec": round(elapsed, 6),
            "rows": len(rows),
            "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        with open(args.manifest, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except ResourceBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        sys.exit(3)
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        sys.exit(4)
    sys.exit(code)


if __name__ == "__main__":
    main()
