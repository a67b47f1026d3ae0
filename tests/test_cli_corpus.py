"""A fixed corpus of CLI invocations and the sha256 of the bytes each prints.

The hashes were recorded before the shifted-prime sieves replaced the
per-prime factoring loops; every invocation must print the same bytes with
one thread and with two.  A change that moves a hash names and explains it.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from siftlab import cli

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
]


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv, digest", CORPUS, ids=[argv for argv, _ in CORPUS])
def test_cli_output_bytes_unchanged(argv, digest, threads):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.dispatch(argv.split() + ["--threads", threads]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
