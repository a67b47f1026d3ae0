"""Count the code lines of src/siftlab, per module and in total.

A code line is a physical line that holds a token other than a comment or
a docstring.  Blank lines, comment-only lines and the lines of module,
class and function docstrings are not counted; a line that a multi-line
token (a string, a bracketed expression) spans counts once.

    python3 tools/code_lines.py [DIR]
    python3 tools/code_lines.py [DIR] --ref REF
    python3 tools/code_lines.py [DIR] --params NAME [NAME ...]
    python3 tools/code_lines.py [DIR] --params NAME [NAME ...] --ref REF

The first prints one "lines  module" row per module of DIR (default
src/siftlab) and a last row with the total.  The second also reads each
module of src/siftlab at the git revision REF (git show
REF:src/siftlab/<module>) and prints one "ref  tree  diff  module" row per
module at REF or in DIR, with its code lines at REF, in DIR and the
difference (0 where the module is missing), and a last row with the totals.
The third counts parameters instead of lines: a header row with the NAMEs,
then per module of DIR how many parameters of its functions and lambdas
(positional, keyword-only, *args and **kwargs) carry each NAME, and a last
row with the totals.  The fourth prints one "ref  tree  diff  NAME" row per
NAME: its parameters in all of src/siftlab at REF, in DIR and the difference.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize

SRC = "src/siftlab"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def param_names(source: str) -> list[str]:
    """The name of every parameter of every function and lambda in one module's source."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names += [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return names


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def tree_counts(root: str, measure=code_lines) -> dict:
    """measure(source) per module of the directory root: code lines by default."""
    counts = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                counts[name] = measure(fh.read())
    return counts


def ref_counts(repo: str, ref: str, measure=code_lines) -> dict:
    """measure(source) per module of src/siftlab at the git revision ref: code lines by
    default."""
    git = lambda *args: subprocess.run(["git", "-C", repo, *args], check=True,
                                       capture_output=True, text=True).stdout
    names = git("ls-tree", "--name-only", f"{ref}:{SRC}").splitlines()
    return {name: measure(git("show", f"{ref}:{SRC}/{name}"))
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list[str]) -> int:
    repo = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    ap = argparse.ArgumentParser(description="Count the code lines of src/siftlab.")
    ap.add_argument("dir", nargs="?", default=os.path.join(repo, SRC))
    ap.add_argument("--ref", help="also count src/siftlab at this git revision")
    ap.add_argument("--params", nargs="+", metavar="NAME",
                    help="count the function parameters with these names instead")
    args = ap.parse_args(argv[1:])
    measure = code_lines if args.params is None else param_names
    tree = tree_counts(args.dir, measure)
    if args.ref is None and args.params is not None:
        rows = [[names.count(p) for p in args.params] + [name] for name, names in tree.items()]
        rows.append([sum(col) for col in zip(*(row[:-1] for row in rows))] + ["total"])
        for row in [args.params + ["module"]] + rows:
            print(" ".join(f"{v:>6}" for v in row[:-1]) + f"  {row[-1]}")
        return 0
    if args.ref is None:
        for name, n in tree.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(tree.values()):6d}  total")
        return 0
    try:
        old = ref_counts(repo, args.ref, measure)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr.strip(), file=sys.stderr)
        return 2
    if args.params is not None:
        total = lambda counts, p: sum(names.count(p) for names in counts.values())
        rows = [(total(old, p), total(tree, p), p) for p in args.params]
    else:
        rows = [(old.get(name, 0), tree.get(name, 0), name)
                for name in sorted(old.keys() | tree.keys())]
        rows.append((sum(old.values()), sum(tree.values()), "total"))
    for a, b, name in rows:
        print(f"{a:6d} {b:6d} {b - a:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
