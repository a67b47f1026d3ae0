"""tools/code_lines.py: code lines and parameter names per module."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(HERE, os.pardir, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''\
def report(hist, table=None, *rest, cond=None, **opts):
    """A docstring."""
    pick = lambda table: table
    return pick(cond)


async def fill(table, /, lo, hi):
    return table
'''


def test_param_names_reads_every_kind_of_parameter():
    assert sorted(code_lines.param_names(SNIPPET)) == sorted(
        ["hist", "table", "rest", "cond", "opts", "table", "table", "lo", "hi"])


def test_params_prints_one_row_per_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("def one(cond):\n    return cond\n")
    assert code_lines.main(["code_lines.py", str(tmp_path), "--params", "table", "cond"]) == 0
    assert capsys.readouterr().out == (
        " table   cond  module\n"
        "     3      1  a.py\n"
        "     0      1  b.py\n"
        "     3      2  total\n"
    )


def test_params_at_a_ref_prints_each_name_at_the_ref_in_the_tree_and_the_difference(
        tmp_path, capsys, monkeypatch):
    (tmp_path / "a.py").write_text(SNIPPET)
    at_ref = {"a.py": code_lines.param_names("def f(table, cond):\n    return table\n"),
              "gone.py": code_lines.param_names("def g(table):\n    return table\n")}
    seen = []

    def fake_ref_counts(repo, ref, measure):
        seen.append((ref, measure))
        return at_ref

    monkeypatch.setattr(code_lines, "ref_counts", fake_ref_counts)
    argv = ["code_lines.py", str(tmp_path), "--params", "table", "cond", "lo", "--ref", "REV"]
    assert code_lines.main(argv) == 0
    assert seen == [("REV", code_lines.param_names)]
    assert capsys.readouterr().out == (
        "     2      3     +1  table\n"
        "     1      1     +0  cond\n"
        "     0      1     +1  lo\n"
    )
