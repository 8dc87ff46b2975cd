"""Golden outputs of the closed-form commands and of the training
commands' usage errors.

`design`, `check-prior` and `covering` draw no random numbers and call no
BLAS, and a usage error of `fit`, `predict` or `rate-study` exits 2 before
numpy loads, so their result files, stdout, stderr and exit codes are
pinned byte for byte against the files under tests/golden/<case>/.  These
cases are the only check of their bytes: tools/identity.py leaves them
out.  After a deliberate output change, rewrite those files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change's notes which bytes moved and why.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from besovbnn.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = {
    **{f"design-{f}-{c}": ["design", "--function", f, "--counting", c]
       for f in ("f1", "f2") for c in ("canonical", "compat")},
    **{f"check-prior-{d}": ["check-prior", "--function", "f1", "--density", d]
       for d in ("mixture", "gauss", "laplace", "uniform-slab")},
    # The explicit class pins _spec's --s/--p/--q/--d/--m branch and a record
    # whose finite p and q differ from the built-ins'.
    **{f"{c}-explicit": [c, "--s", "0.9", "--p", "2", "--q", "3", "--d", "1", "--m", "2",
                         "--n", "100,1000"] for c in ("design", "check-prior")},
    # --a 1e-9 is inadmissible at this design: exit 2 with one stderr line.
    "covering-derived": ["covering", "--function", "f1", "--n", "100", "--a", "1e-9"],
    "covering-derived-admissible": ["covering", "--function", "f1", "--n", "100",
                                    "--a", "1e-70"],
    "covering-explicit": ["covering", "--L", "3", "--W", "8", "--S", "10", "--B", "2",
                          "--delta", "0.5", "--a", "1e-9"],
    # An explicit geometry reads no --n: exit 2 with one stderr line.
    "covering-explicit-n": ["covering", "--L", "3", "--W", "8", "--S", "10", "--B", "2",
                            "--delta", "0.5", "--n", "1000"],
    # Usage errors of the training commands: exit 2 with one stderr line,
    # before numpy loads or any file is written.
    "exit-2-one-draw": ["fit", "--function", "f2", "--draws", "1"],
    "exit-2-two-sizes": ["fit", "--function", "f2", "--n", "20,40"],
    "exit-2-nan-rate": ["fit", "--function", "f2", "--learning-rate", "nan"],
    "exit-2-unknown-flag": ["fit", "--function", "f2", "--bogus"],
    "exit-2-no-checkpoint": ["predict", "--function", "f2"],
    "exit-2-missing-checkpoint": ["predict", "--function", "f2",
                                  "--checkpoint", "out/missing/checkpoint"],
    "exit-2-rate-study-sizes": ["rate-study", "--function", "f2", "--n", "20,40"],
}


def outputs(argv, out_dir: Path) -> dict[str, bytes]:
    """The exit code, stdout, stderr and result files of one in-process run."""
    if argv[0] != "covering":  # covering writes no files
        argv = [*argv, "--out-dir", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
    return {"exit_code.txt": f"{rc}\n".encode(), "stdout.txt": stdout.getvalue().encode(),
            "stderr.txt": stderr.getvalue().encode(), **files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_closed_form_outputs_match_golden(tmp_path, case):
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    assert outputs(CASES[case], tmp_path / "out") == expected


def test_json_outputs_are_strict():
    # RFC 8259 has no NaN or Infinity: a non-finite float is written as null
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    texts = [*GOLDEN.glob("*/*.json"), *GOLDEN.glob("check-prior-*/stdout.txt")]
    assert len(texts) == 15  # five design.json, five condition_report.json and its stdout
    for path in texts:
        json.loads(path.read_text(), parse_constant=reject)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in CASES.items():
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            (GOLDEN / case).mkdir(parents=True)
            for name, data in outputs(argv, Path(tmp) / case).items():
                (GOLDEN / case / name).write_bytes(data)
    print(f"wrote {len(CASES)} cases under {GOLDEN}", file=sys.stderr)
