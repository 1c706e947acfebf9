"""Every walkthrough under demos/ runs to completion, and prints the same
under ``python -O``, which strips ``assert`` statements."""

import glob
import os
import subprocess
import sys

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_cleanly(path, tmp_path):
    stdout = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, os.path.abspath(path)],
            cwd=tmp_path,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert b"Traceback" not in proc.stderr
        stdout.append(proc.stdout)
    assert stdout[0] and stdout[0] == stdout[1]
