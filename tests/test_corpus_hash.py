"""tools/corpus_hash.py: CLI invocations printed as corpus entries."""

import importlib.util
import os
import shutil

from test_cli_corpus import CORPUS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")
_spec = importlib.util.spec_from_file_location(
    "corpus_hash", os.path.join(HERE, os.pardir, "tools", "corpus_hash.py"))
corpus_hash = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus_hash)

ARGV, DIGEST = next(entry for entry in CORPUS if entry[0] == "hist --x 100000 --f musq --g omega")
ENTRY = f'    ("{ARGV}",\n     "{DIGEST}"),\n'


def test_an_invocation_prints_its_corpus_entry(capsys):
    assert corpus_hash.main(["corpus_hash.py", ARGV]) == 0
    assert capsys.readouterr().out == ENTRY


def test_a_ref_runs_the_package_extracted_at_that_revision(capsys, monkeypatch):
    seen = []

    def fake_extract(repo, ref, dest):
        seen.append(ref)
        shutil.copytree(os.path.join(SRC, "siftlab"), os.path.join(dest, "src", "siftlab"))

    monkeypatch.setattr(corpus_hash, "extract", fake_extract)
    assert corpus_hash.main(["corpus_hash.py", "--ref", "REV", ARGV]) == 0
    assert seen == ["REV"]
    assert capsys.readouterr().out == ENTRY


def test_a_failing_run_exits_with_its_code_and_stderr(capsys):
    assert corpus_hash.main(["corpus_hash.py", "hist --x 0"]) == 2
    assert "need x >= 1" in capsys.readouterr().err
