"""tests/mutants.py refuses any argument before it copies anything."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent / "mutants.py"


@pytest.mark.parametrize("argv", [["--help"], ["extra"]], ids=["help", "extra"])
def test_refuses_arguments(tmp_path, argv):
    # the whole job takes minutes; a refusal is immediate and writes no
    # copy into the temporary directory
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        env=dict(os.environ, TMPDIR=str(tmp_path)),
        capture_output=True, text=True, timeout=30,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: ")
    assert not any(tmp_path.iterdir())
