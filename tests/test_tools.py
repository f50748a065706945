"""The measuring scripts under tools/ still run against the program."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["read_texts.py", "startup.py"])
def test_tool_runs_one_round(script):
    """One round of each timing script exits 0, so a renamed or deleted
    name of the program cannot break it unnoticed."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / script), "--runs", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_cli_fuzzer_runs():
    """Two seconds of the command-line fuzzer meet no uncaught exception and
    no exit code outside 0-5."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "fuzz_cli.py"), "--seconds", "2"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
