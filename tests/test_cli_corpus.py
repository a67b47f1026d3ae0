"""A fixed corpus of CLI invocations and the sha256 of the bytes each prints.

The hashes were recorded before the shifted-prime sieves replaced the
per-prime factoring loops; every invocation must print the same bytes with
one thread and with two.  A change that moves a hash names and explains it.
The two non-integer weights (`mgf --f zomega:1.3`, `omega-gcd --f phioverN`)
were recorded once their masses became ascending-n sums owned by numpy.  The
`hist` and `egps` runs past 2**20 were recorded while each mass was still one
np.bincount over all n, before it was reduced window by window.  The
`hist --f phioverN` and `s-div` runs were recorded while each window still
built its result and copied it into the range, divided its cofactors into
an int64 array and gathered its weights through bool masks.  The last two,
`hist --f musq` and `mgf --f tauk:3`, were recorded while every mult window
still divided out its cofactors and finished them through prime_vec.  The
`sigma-div` run, three windows long, was recorded while its mask was still
taken from a sigma array of length x + 1.  The `jointpoly` run was recorded
while `factorize` still read the whole prime table on every call.  The
two `apcount` runs were recorded while `apcount` still held a counts array
of length x + 1 built through each window's cofactor product.  The last
six, `sp-dev`, `qf-dev` and the `sp:` and `qf:...,shift=K` sets of `dev`
and `table-sifted`, were recorded while `sp-dev` and `qf-dev` still ran
histograms of their own and each set built a second prime table.  The last
three, `jointpoly` over three windows and at a cubic, and a `qf:` set four
windows long, were recorded while `jointpoly` still factored each value
prime by prime over a table to x, and while the form's values were still
enumerated for X of both signs.  The last three, `sigma-div` and `s-div`
with `--f phioverN` and `omega-gcd --f tauk:2`, each three windows long,
were recorded while those commands still read their weights from one array
of length x + 1.  The last four, `spd` and `lambda-image` over three
windows, `table --n 1500 --shift -1` over three windows and
`table --n 1025 --shift 1`, whose second window, 2049 wide, holds only
rows with fewer products than the strided split, were recorded while the
classes above the root still went one cofactor j at a time and every
table row had its own strided slice.  The last two, `dev --sieve sp:2,-1`
and `hist --sieve qf:1,1,2,shift=1`, each three windows long, were
recorded while every `sp:` and `qf:` set still built a bitmap of length
x + 1.  The last four, `hr-check`, `tails`, `primes` and `constants`, were
recorded while `hr_constant` still read a prime table passed to it and
while `bulk.window_ranges` still bound its width at import; with them every
subcommand that `build_parser()` registers has an entry, and a test checks
that.  The last three, `dev --sieve sp:7,-3`, whose p-range is a seventh of
its window, `hist --sieve qf:1,0,1,shift=-3000`, whose shifted windows cross
0 at the width 9973, and `table-sifted --sieve sp:1,1 --f phioverN`, a float
weight over an `sp:` set, were recorded while every `sp:` and
`qf:...,shift=K` window still sliced its primes from a prime table to x.

Every invocation also runs with one thread at the window width 9973, set
through `bulk.DEFAULT_WINDOW`, which every pass reads when it starts, and
must print the same bytes there.  The runs below 9973 integers are one
window either way; the others cut their masses at other n.  Summing each
window's float weights before adding them to the bins fails 11 of these
runs, `mgf --x 200000 ... zomega:1.3` and `omega-gcd --x 200000 --f
phioverN` among them, which are one window at the default width and so
keep their bytes there.

One hash moved on purpose: `mgf --x 200000 --z 1.5 --f zomega:1.3` was
re-recorded when `mgf` began to read the histogram, z**k times bin k in
ascending k, in place of numpy's pairwise sum of the per-n terms.  Its
value moved by 3.3e-13 relative, 1508402.7401799534 to 1508402.7401794624,
and its ratio with it.  `mgf --f tauk:3` sums integers times powers of 1.5,
all exact, and kept its bytes.

Output bytes must not depend on the machine either: no reduction in
`src/siftlab` may go through BLAS, whose thread count reorders the sum.
And the oracles the suite checks the package against must not import it.
No module of the package keeps an import it never reads, a `_private`
function or constant it never reads, or an `__all__` entry it does not
define, so code that nothing reaches shows.
"""

import argparse
import ast
import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from siftlab import cli

SRC = Path(__file__).resolve().parents[1] / "src"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

CORPUS = [
    ("lambda-image --u 1 --v -1 --x 20000",
     "e8708a3be0dc7df8b8733b6dff07e75a4c77261a6f25c6169578ba7b8106e602"),
    ("lambda-image --u 1 --v 1 --x 20000",
     "cfaffd7f6b6c310b9ac3dbc17d45f0230a3a048f5898e37cad249c4099339507"),
    ("lambda-image --u 2 --v 2 --x 20000",
     "e01ccf96ad8010c5b44bac3745b5319c94fca8b4ed787485fa1130ee40b2c39a"),
    ("lambda-image --u 1 --v 1 --x 102",
     "71c94bd356801740792520c92e5fb92cebcee0d21a97699fe178d058f2cd310a"),
    ("lambda-image --u 2 --v 2 --x 28",
     "357461e554d408de2c96e19aab29bdc4f340adfd622b187376c7744161080d31"),
    ("spd --a 1 --u 1 --v -1 --x 20000 --y 1000",
     "fa40e6b89e91d67e4163ce1177ce634a7fa1050f028c7725ebeab93b60c15cd8"),
    ("spd --a -1 --u 1 --v 1 --x 20000 --y 3",
     "0526cedf48d0a2494c6987b6481c7e2f9cf3cb657966e68987fa9979526b8513"),
    ("spd --a 1 --u 2 --v 0 --x 20000 --y 3",
     "19d6ac62e1e3173c0018f0d7289faf249008c20275343bb75daa32a9ae470c00"),
    ("spd --a -1 --u 3 --v -7 --x 20000 --y 1000",
     "2e36669cd71b94090504c3f5ba8d55071ef546bfa923d1464456a06a39d619c9"),
    ("table-sifted --x 20000 --f musq --sieve explicit:3:1;5:2",
     "4cecfc2438f7e6bc1873dfe4692261e36d48e16df0a2bb9ac590ee73cf5471e8"),
    ("hist --x 100000 --f musq --g omega",
     "9e423bec8a834a36de884166931254944959cfb60db63273ea4db56e715fb8a5"),
    ("dev --x 100000 --lambda 1.0",
     "dc671b8d2b2a41125602ba57fb4be6f9412cf3791e5feba61fef8e16ae1809a8"),
    ("mgf --x 200000 --z 1.5 --f zomega:1.3",
     "a049c8150920eff99d01778cf23a0e641ffb1b58de14a955fadfbda99cbec693"),
    ("omega-gcd --x 200000 --f phioverN",
     "1c7f76a7e32e07c632a664ada728348bb5925c18310451f5a9f11bf615f0d446"),
    ("hist --x 2500000 --f zomega:1.3 --g omega --sieve explicit:2:1",
     "7e2e4da258d873171e035281d56a7991ee4a31051d80806fe252afa8ea430bb7"),
    ("egps --x 2200000 --f zomega:1.3 --lambda 2.0",
     "2807d78c860d9556beeba42de4fa4a23edbb65025e1c4fde7d3ae133185891ed"),
    ("hist --x 2500000 --f phioverN --g bigomega --e mod:4:1",
     "a346a9506d4e48268cf2450dc4894c88011465343556a67cbc90f6ec157f548e"),
    ("s-div --x 2200000 --y 1000 --z 10 --d 3 --f zomega:1.3",
     "cb684556bdef89f39e111028f560c57be20918adf31c990c63a424d6a92b60e1"),
    ("hist --x 2300000 --f musq --g bigomega --sieve explicit:3:1",
     "f46d54fbe8e855ed72fcf0ed752fdc44b356853f1445d8ac091da0a79a6af730"),
    ("mgf --x 2100000 --z 1.5 --f tauk:3",
     "11d57badfdd8f2b3c099e6359fb4004748a5b59590ae862f89dc61636e3360a4"),
    ("sigma-div --x 2200000 --p 3 --f musq",
     "d8d6d01d7fe7df01ce7c128bce3c1f09cfd00c484ed1a65681123bd83d2cabbf"),
    ("jointpoly --q 1,1 --q -1,1 --x 1000000 --y 100000 --k 2,2",
     "1d93fa1ab413b32bb9a422948aacb960432876907c050bc10a9fc93b2f1d97ba"),
    ("apcount --x 2300000 --d 4 --a 1 --g omega --k 3",
     "a4f6ca75e2b2de2cc0e7b7a6bf92aa27a400882524547e720d82e56748b29c5e"),
    ("apcount --x 2300000 --d 7 --a 3 --g bigomega --k 4",
     "7ff4a6cec4c44fe2bfba4450ff9b06498ff16104228b45940e12aba42cac5ba9"),
    ("sp-dev --a 1 --b -1 --x 2300000 --f zomega:1.3 --lambda 0.5",
     "f13a74744bb79d90a440b82ed49e627c5441525c19c235a3e4638a64ff1b8aa5"),
    ("sp-dev --a 2 --b -1 --x 200000 --f musq --g bigomega --e mod:4:1 --lambda 0.5",
     "1c7ee6f0d8ddd0a4552e0b50e4fbc513985c64ccabf204b51d53168459754a84"),
    ("qf-dev --form 1,0,1 --shift -1 --x 200000 --lambda 0.5",
     "705db8014274f97be6ebf15d50b478cbff749e881d0819b89a2c518dd99c26e2"),
    ("qf-dev --form 1,1,2 --g bigomega --x 200000 --lambda 1.0",
     "125f0b73f35240e647e041ac5f6ef2f8053304949e31cce3a6a25e8fc19cd682"),
    ("dev --sieve sp:1,-1 --x 200000 --lambda 1.0",
     "b06fe7c3d133fa0aa44cdf046b16b80426f5e651470fbf7676de53e8814142ff"),
    ("table-sifted --sieve qf:1,0,1,shift=2 --f musq --x 200000",
     "8da2099b0d48a58272328cda23810de290d0b2ae84e65f6569ce9d9453735f39"),
    ("jointpoly --q -1,2 --x 2200000 --y 2100000 --k 2",
     "c751a21ac62ea66ceb7d14a4a02c13246c089d9db51583fa224cb3758cfa29b3"),
    ("jointpoly --q 1,1,0,1 --x 30000 --y 3000 --k 2",
     "2c43f48a766036d437d015c208ed0d5992895bb3f527319db867e23e5b95b406"),
    ("dev --sieve qf:1,1,2 --x 3145745 --lambda 1.0",
     "54a624ea0526e4819dc68aaade536f44c130f9b75ce3c182024e8fce4c35ccd8"),
    ("sigma-div --x 2200000 --p 5 --f phioverN",
     "50cef953ba1055bba7cedf19fc3ce71b00e5211a7c11a819ecec63484db410f3"),
    ("s-div --x 2200000 --y 1000 --z 10 --d 3 --f phioverN",
     "5e1f0089a6a0a5239342634cc54dfcdae3ccb810f02cf7a10b04dadfdd2f6949"),
    ("omega-gcd --x 2200000 --f tauk:2",
     "c305d2033df8761dffbd5a7c7ad3540bf87bd9b9ca13e515934fe71c80e69774"),
    ("spd --a 2 --u 1 --v 1 --x 2200000 --y 1000",
     "048a0cd629e63be8225f43b295b74a322b81b8757734b4a4115f3e8574b322e3"),
    ("lambda-image --u 1 --v 1 --x 2200000",
     "9d90532515b330822857efb13e58d96d1cdf2b4dc38e0564e2aede0c7aded069"),
    ("table --n 1500 --shift -1",
     "22d6dc78a372d5d43bdc4c2ca964979a5d9b24e34f4e7761c0de2fa2bf87aaae"),
    ("table --n 1025 --shift 1",
     "1e4349ce21a709b6cb7849159abb62fae1edb0be0df688088af4fa7dd7234a9a"),
    ("dev --sieve sp:2,-1 --x 2200000 --lambda 1.0",
     "f3bbdb5c8e2435099ff723e0575c92d65053510de8628bd3f094c9d7122693d5"),
    ("hist --sieve qf:1,1,2,shift=1 --x 2200000",
     "d432a0b073f05aa65115f60c8efd8c4407fc33e152d58b4c7fa0715252232474"),
    ("hr-check --x 2200000 --f zomega:1.3",
     "0e0b059ff0e8f843f849b0c1b8030d02d7bc102bffa47fd2e30ed58251f9bb96"),
    ("tails --x 2200000 --delta 0.5 --f phioverN --g bigomega",
     "67895c8c315fcc77b435998d3d31ee4362eac56971c7a3fc670b609219907413"),
    ("primes --x 2200000",
     "2dcefb0be60c060e8d045b146ebcfcf3a86f493734b967b4920d1134e821bc31"),
    ("constants --x 2200000",
     "1d600ad29a63643b25c2d3637eb7693734d9822bcd9e88bf24bd1416917aaaf2"),
    ("dev --sieve sp:7,-3 --x 2200000 --lambda 1.0",
     "a5ca38689e83d73eae1fdcc684f5a5e1142b44d484703001312567b650f2bbff"),
    ("hist --sieve qf:1,0,1,shift=-3000 --x 2200000",
     "20ca25d3ba6f755ef835d475ff0df79e3b86a21ac7a46b6c4c26d450a92f5d7b"),
    ("table-sifted --sieve sp:1,1 --f phioverN --x 2200000",
     "927d2b0001b0141ac838ccf9623d64a34cab2b871188c61f2d9b8031dd7baa8f"),
]

# weights that are not integers, so any reordering of the sum shows in the bytes;
# the last six cross 2**20, so their masses are reduced over several windows
BLAS_SENSITIVE = ["mgf --x 200000 --z 1.5 --f zomega:1.3",
                  "omega-gcd --x 200000 --f phioverN",
                  "hist --x 2500000 --f zomega:1.3 --g omega --sieve explicit:2:1",
                  "egps --x 2200000 --f zomega:1.3 --lambda 2.0",
                  "hist --x 2500000 --f phioverN --g bigomega --e mod:4:1",
                  "s-div --x 2200000 --y 1000 --z 10 --d 3 --f zomega:1.3",
                  "sigma-div --x 2200000 --p 5 --f phioverN",
                  "s-div --x 2200000 --y 1000 --z 10 --d 3 --f phioverN"]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv, digest", CORPUS, ids=[argv for argv, _ in CORPUS])
def test_cli_output_bytes_unchanged(argv, digest, threads):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.dispatch(argv.split() + ["--threads", threads]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("argv, digest", CORPUS, ids=[argv for argv, _ in CORPUS])
def test_cli_output_bytes_hold_at_an_odd_window_width(argv, digest, window_width):
    # 9973 is prime, so no window edge falls where a power of two would put it,
    # and every run past 9973 integers spans several windows
    window_width(9973)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.dispatch(argv.split() + ["--threads", "1"]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_every_subcommand_has_a_corpus_entry():
    names = next(a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(set(names) - {argv.split()[0] for argv, _ in CORPUS}) == []


@pytest.mark.parametrize("argv", BLAS_SENSITIVE)
def test_cli_output_bytes_ignore_blas_threads(argv):
    outs = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-m", "siftlab.cli", *argv.split()],
                             env=env, capture_output=True, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]


_BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum", "linalg"}


def _blas_uses(tree):
    """`@`, `.dot(`, numpy's BLAS-backed functions, any linalg, and imports of them."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node
        elif isinstance(node, ast.Attribute) and (
                node.attr in ("dot", "linalg")
                or (node.attr in _BLAS_NAMES and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy"))):
            yield node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            if any(_BLAS_NAMES & set(n.split(".")) for n in names):
                yield node


def test_no_blas_reduction_in_source():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "siftlab").glob("*.py"))
             for node in _blas_uses(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_blas_scan_sees_every_form():
    src = ("import numpy as np\nfrom numpy import inner\nfrom numpy.linalg import norm\n"
           "a @ b\nc @= d\nnp.dot(a, b)\na.dot(b)\nnp.einsum('i,i', a, b)\n"
           "np.linalg.norm(a)\nself.inner\n")
    assert sorted(n.lineno for n in _blas_uses(ast.parse(src))) == [2, 3, 4, 5, 6, 7, 8, 9]


def _package_imports(tree):
    """Every import of siftlab or of a module inside it: relative ones, and by
    __import__ or importlib.import_module too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." if node.level else node.module or ""]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            names = [node.args[0].value]
        else:
            continue
        if any(n == "." or n.split(".")[0] == "siftlab" for n in names):
            yield node


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    assert [node.lineno for node in _package_imports(tree)] == []


def test_package_import_scan_sees_every_form():
    src = ("import siftlab\nimport siftlab.bulk as b\nfrom siftlab import arith\n"
           "from siftlab.arith import factorize\nfrom . import bulk\nimport numpy\n"
           "from math import gcd\nimport siftlabx\n__import__('siftlab.cli')\n"
           "importlib.import_module('siftlab')\nimportlib.import_module('numpy')\n")
    assert [n.lineno for n in _package_imports(ast.parse(src))] == [1, 2, 3, 4, 5, 9, 10]


def _dead_names(tree):
    """(kind, name) for each name the module imports and never reads, each `_private`
    function, class or constant it binds at top level and never reads, and each `__all__`
    entry it does not bind at top level; `__future__` imports bind nothing."""
    imported, bound, read, exported = set(), set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                exported = [e.value for e in node.value.elts]
    yield from (("unused import", n) for n in sorted(imported - read))
    private = {n for n in bound if n.startswith("_") and not n.startswith("__")}
    yield from (("unread private", n) for n in sorted(private - read))
    yield from (("unresolved export", n) for n in exported if n not in bound | imported)


def test_no_dead_imports_or_exports_in_source():
    found = [f"{path.name}: {kind} {name}"
             for path in sorted((SRC / "siftlab").glob("*.py")) if path.name != "__init__.py"
             for kind, name in _dead_names(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_dead_name_scan_sees_every_form():
    src = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
           "from math import gcd, isqrt as r\nfrom . import bulk\n"
           "def f(x: np.ndarray):\n    return r(x) + bulk.n + _K * _h(x)\n"
           "def _h(x):\n    return x\n"
           "def _left(x):\n    return x\nclass _Gone:\n    pass\n"
           "_K, _UNREAD = 2, 3\n_SOLO: int = 4\nN = 3\n__all__ = ['f', 'N', 'gcd', 'g']\n")
    assert list(_dead_names(ast.parse(src))) == [
        ("unused import", "gcd"), ("unused import", "os"), ("unread private", "_Gone"),
        ("unread private", "_SOLO"), ("unread private", "_UNREAD"), ("unread private", "_left"),
        ("unresolved export", "g")]
