"""The scripts in demos/ run to the end."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_demo_runs_by_the_documented_command():
    # README: "PYTHONPATH=src python3 demos/01_expressions_and_charts.py"
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = "src"
    done = subprocess.run([sys.executable, "demos/01_expressions_and_charts.py"],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
