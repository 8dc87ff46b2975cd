"""`tools/identity.py`, the byte-identity check against another revision,
without its training runs: its case matrix, which leaves the closed-form
commands to tests/test_golden.py, its compare-and-write step on fake
digests, and a whole run on a one-case matrix (`--help`).  Real digests
depend on the BLAS build, so no test pins them.  The tool is imported, not
written: no bytecode is cached next to it.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import besovbnn
import test_golden

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def identity(monkeypatch):
    """The `identity` module, imported from tools/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(TOOLS))
    assert "identity" not in sys.modules
    try:
        yield importlib.import_module("identity")
    finally:
        sys.modules.pop("identity", None)


def test_matrix_lists_each_case_once_with_its_own_out_dir(identity):
    cases = identity.matrix()
    names = [case["name"] for case in cases]
    out_dirs = [case["out_dir"] for case in cases]
    assert len(set(names)) == len(names)
    assert len(set(out_dirs)) == len(out_dirs)
    for case in cases:
        argv = case["argv"]
        if "--out-dir" in argv:
            assert argv[argv.index("--out-dir") + 1] == case["out_dir"]
        # a predict case reads a checkpoint that a case before it writes
        if "--checkpoint" in argv and "missing" not in argv[argv.index("--checkpoint") + 1]:
            fit = argv[argv.index("--checkpoint") + 1].rsplit("/", 1)[0]
            assert fit in out_dirs[:out_dirs.index(case["out_dir"])]


def test_matrix_leaves_the_golden_commands_to_test_golden(identity):
    # tests/test_golden.py is the one owner of the closed-form commands
    golden = list(test_golden.CASES.values())
    for case in identity.matrix():
        argv = case["argv"]
        if argv[:2] != ["-m", "besovbnn.cli"]:
            continue
        argv = argv[2:]
        if "--out-dir" in argv:
            i = argv.index("--out-dir")
            argv = argv[:i] + argv[i + 2:]
        assert argv not in golden, case["name"]


def test_this_tree_names_the_src_tree_a_commit_records(identity, tmp_path, monkeypatch):
    def git(*args) -> str:
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@t", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("a = 1\n")
    (tmp_path / "notes.txt").write_text("outside src\n")
    git("init", "-q")
    git("add", "--all")
    git("commit", "-q", "-m", "first")
    monkeypatch.setattr(identity, "ROOT", tmp_path)
    # clean: HEAD's own src/ tree
    assert identity.this_tree() == {"this_head": git("rev-parse", "HEAD"), "this_dirty": False,
                                    "this_src_tree": git("rev-parse", "HEAD:src")}
    # dirty: the src/ tree that committing the changes records, index untouched
    (tmp_path / "src" / "a.py").write_text("a = 2\n")
    (tmp_path / "src" / "b.py").write_text("b = 1\n")
    (tmp_path / "notes.txt").write_text("not in src\n")
    record = identity.this_tree()
    assert git("diff", "--cached", "--name-only") == ""  # nothing staged
    git("add", "--all")
    git("commit", "-q", "-m", "second")
    assert record["this_dirty"] and record["this_head"] == git("rev-parse", "HEAD~1")
    assert record["this_src_tree"] == git("rev-parse", "HEAD:src") != git("rev-parse", "HEAD~1:src")


def fake_run(identity):
    """Results of every case, with the digests a fake tree would give."""
    return {case["name"]: {"exit": 0, "digests": {"stdout": "a" * 64, "stderr": "b" * 64,
                                                  f"{case['out_dir']}/result.csv": "c" * 64}}
            for case in identity.matrix()}


@pytest.mark.parametrize("change, line", [
    (None, None),
    ({"exit": 1}, "fit-desk-f2: exit 1 here, 0 at the revision"),
    ({"digests": {"stdout": "d" * 64}}, "fit-desk-f2: stdout differs"),
    ({"digests": {"out/fit-desk-f2/extra.csv": "e" * 64}},
     "fit-desk-f2: out/fit-desk-f2/extra.csv written only here"),
], ids=["equal", "exit", "digest", "extra-file"])
def test_report_lists_each_difference_and_sets_the_exit_code(identity, tmp_path, capsys,
                                                             change, line):
    against = fake_run(identity)
    this = fake_run(identity)
    if change is not None:
        entry = this["fit-desk-f2"]
        this["fit-desk-f2"] = {"exit": change.get("exit", entry["exit"]),
                                 "digests": {**entry["digests"], **change.get("digests", {})}}
    header = {"against_rev": "HEAD", "against_commit": "0" * 40, "this_head": "0" * 40,
              "this_dirty": False, "this_src_tree": "1" * 40,
              "versions": {"python": "3", "numpy": "2", "scipy": "1", "openblas": "0"},
              "wall_s": 1.0}
    rc = identity.report(tmp_path / "IDENTITY.json", header, identity.matrix(), this, against)
    record = json.loads((tmp_path / "IDENTITY.json").read_text())
    assert set(record) == {"schema_version", "against_rev", "against_commit", "this_head",
                           "this_dirty", "this_src_tree", "versions", "wall_s", "skipped", "cases",
                           "this", "against", "items_compared", "differences"}
    assert record["skipped"] == ["timings.txt"]
    assert set(record["cases"]) == {case["name"] for case in identity.matrix()}
    # per run: the exit code and its three digests
    assert record["items_compared"] == 4 * len(this) + (line is not None and "extra" in line)
    out = capsys.readouterr().out
    if line is None:
        assert (rc, record["differences"]) == (0, [])
        assert "differs:" not in out
    else:
        assert (rc, record["differences"]) == (1, [line])
        assert f"differs: {line}\n" in out



def test_main_compares_two_trees_end_to_end(identity, tmp_path, monkeypatch, capsys):
    # A temporary repository whose src/ is this package: the tool extracts
    # its HEAD, runs a one-case matrix on both trees and writes the record.
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path / "repo"), "-c", "user.name=t",
                        "-c", "user.email=t@t", *args], capture_output=True, check=True)

    package = Path(besovbnn.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "repo" / "src" / "besovbnn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    git("init", "-q")
    git("add", "--all")
    git("commit", "-q", "-m", "first")
    monkeypatch.setattr(identity, "ROOT", tmp_path / "repo")
    monkeypatch.setattr(identity, "matrix", lambda: [
        {"name": "help", "argv": ["-m", "besovbnn.cli", "--help"], "out_dir": "out/help"}])
    out = tmp_path / "IDENTITY.json"
    assert identity.main(["--against", "HEAD", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record["this"]) == set(record["against"]) == {"help"}
    assert record["this"]["help"]["exit"] == 0 and record["differences"] == []
    assert "0 differ" in capsys.readouterr().out
