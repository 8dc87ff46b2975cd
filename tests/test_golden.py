"""Golden outputs of the closed-form commands.

`design`, `check-prior` and `covering` draw no random numbers and call no
BLAS, so their result files, stdout and exit codes are pinned byte for byte
against the files under tests/golden/<case>/.  After a deliberate output
change, rewrite those files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change's notes which bytes moved and why.
"""

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from besovbnn.cli import main

# A numpy warning would leak onto the CLI's one-line stderr.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
    "covering-derived": ["covering", "--function", "f1", "--n", "100", "--a", "1e-9"],
    "covering-explicit": ["covering", "--L", "3", "--W", "8", "--S", "10", "--B", "2",
                          "--delta", "0.5", "--a", "1e-9"],
}


def outputs(argv, out_dir: Path) -> dict[str, bytes]:
    """The exit code, stdout and result files of one in-process run."""
    if argv[0] != "covering":  # covering writes no files
        argv = [*argv, "--out-dir", str(out_dir)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(argv)
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
    return {"exit_code.txt": f"{rc}\n".encode(), "stdout.txt": stdout.getvalue().encode(),
            **files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_closed_form_outputs_match_golden(tmp_path, case):
    expected = {p.name: p.read_bytes() for p in (GOLDEN / case).iterdir()}
    assert outputs(CASES[case], tmp_path / "out") == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in CASES.items():
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            (GOLDEN / case).mkdir(parents=True)
            for name, data in outputs(argv, Path(tmp) / case).items():
                (GOLDEN / case / name).write_bytes(data)
    print(f"wrote {len(CASES)} cases under {GOLDEN}", file=sys.stderr)
