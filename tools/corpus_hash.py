"""Print CLI invocations as entries of the corpus in tests/test_cli_corpus.py.

    python3 tools/corpus_hash.py ARGV [ARGV ...]
    python3 tools/corpus_hash.py --ref REF ARGV [ARGV ...]

Each ARGV is one invocation in one argument, spelled as the corpus spells
it and split on whitespace as the corpus test splits it:

    python3 tools/corpus_hash.py "hist --x 100000 --f musq --g omega"

Each runs as `python3 -m siftlab.cli ARGV --threads 1`, and the sha256 of
the bytes it prints goes out as one CORPUS entry, ready to paste:

    ("hist --x 100000 --f musq --g omega",
     "9e423bec..."),

The first form runs the package in this tree's src.  The second runs it as
it is at the git revision REF, extracted with `git archive REF src` into a
temporary directory, so an entry can be recorded at a parent revision while
the tree's src is being edited.  A run that exits nonzero stops the script
with its stderr and exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def extract(repo: str, ref: str, dest: str) -> None:
    """Write src as it is at the git revision ref under dest (dest/src/siftlab/...)."""
    tar = subprocess.run(["git", "-C", repo, "archive", ref, "src"], check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=tar, check=True, capture_output=True)


def digest(argv: str, src: str) -> str:
    """The sha256 of what `siftlab ARGV --threads 1` prints, the package read from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "siftlab.cli", *argv.split(), "--threads", "1"],
                         env=env, capture_output=True, check=True)
    return hashlib.sha256(run.stdout).hexdigest()


def entries(argvs: list[str], src: str) -> str:
    """One CORPUS entry per invocation, as the corpus spells them."""
    return "".join(f'    ("{argv}",\n     "{digest(argv, src)}"),\n' for argv in argvs)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Print CLI invocations as corpus entries.")
    ap.add_argument("--ref", help="run the package as it is at this git revision")
    ap.add_argument("argvs", nargs="+", metavar="ARGV", help="one invocation, quoted")
    args = ap.parse_args(argv[1:])
    try:
        if args.ref is None:
            sys.stdout.write(entries(args.argvs, os.path.join(REPO, "src")))
            return 0
        with tempfile.TemporaryDirectory() as tmp:
            extract(REPO, args.ref, tmp)
            sys.stdout.write(entries(args.argvs, os.path.join(tmp, "src")))
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr.decode())
        return exc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
