"""Start-up cost of the command line: fresh interpreters, timed end to end.

    python3 tools/startup.py [--runs N]        (default: 7 runs per case)

Each case runs in a new interpreter that imports the program from the
``src/`` beside this script, as the ``chartdist`` command does: it imports
``chartdist.cli`` and calls ``main`` on the case's arguments.  The cases
are ``import chartdist.cli`` alone, the worked-example expression ``dist``
of README.md, the same ``dist --table``, a chart ``dist``, a ``--format
diag`` ``dist``, a ``derive`` and a ``check`` of the worked example, and
``axioms --check``.
Every round runs ``python -c pass`` and then each case once, so a slow
spell of the machine slows all of them alike.  Prints, per case, the best
and the median wall time over the rounds, and the best minus the best of
``python -c pass``.

The bytecode cache is written once, by an untimed round, into a temporary
directory that is removed at the end; the script leaves no file behind.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

FIG_LEFT = "a.(a.0 + b.mu v1.a.v1)+b.mu v1.a.v1"
FIG_RIGHT = "mu v2.(a.v2 + b.mu v1.a.a.v1)"
CHART_LEFT = "state p\nstate q\nstart p\ntrans p a q\ntrans q a p\nout q v1\n"
CHART_RIGHT = "state r\nstart r\ntrans r a r\nout r v1\n"
DIAG_LEFT = "copy ; (act(a) ; act(b)) * act(a) ; merge"
DIAG_RIGHT = "act(a) ; copy ; act(b) * id(>) ; merge"

MAIN = "import sys\nfrom chartdist.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def cases(cert):
    """(name, argv after the interpreter) of each timed case."""
    return [
        ("python -c pass", ["-c", "pass"]),
        ("import chartdist.cli", ["-c", "import chartdist.cli"]),
        ("dist, worked example", ["-c", MAIN, "dist", FIG_LEFT, FIG_RIGHT]),
        ("dist --table", ["-c", MAIN, "dist", "--table", FIG_LEFT, FIG_RIGHT]),
        ("dist --format chart", ["-c", MAIN, "dist", "--format", "chart",
                                 CHART_LEFT, CHART_RIGHT]),
        ("dist --format diag", ["-c", MAIN, "dist", "--format", "diag",
                                DIAG_LEFT, DIAG_RIGHT]),
        ("derive, worked example", ["-c", MAIN, "derive", FIG_LEFT, FIG_RIGHT]),
        ("check, worked example", ["-c", MAIN, "check", cert, FIG_LEFT, FIG_RIGHT]),
        ("axioms --check", ["-c", MAIN, "axioms", "--check"]),
    ]


def run(argv, env):
    """Wall seconds of one interpreter; its exit code must be 0."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=7, help="rounds (default %(default)s)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="chartdist-startup-") as cache:
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        cert = subprocess.run([sys.executable, "-c", MAIN, "derive", FIG_LEFT, FIG_RIGHT],
                              env=env, check=True, capture_output=True,
                              text=True).stdout.strip()
        todo = cases(cert)
        for _, case in todo:  # writes the bytecode cache; not timed
            run(case, env)
        times = {name: [] for name, _ in todo}
        for _ in range(args.runs):
            for name, case in todo:
                times[name].append(run(case, env))
    base = min(times["python -c pass"])
    print(f"{sys.executable}, {args.runs} rounds, ms")
    print(f"{'case':<24} {'best':>7} {'median':>7} {'best - pass':>11}")
    for name, seen in times.items():
        best = min(seen)
        print(f"{name:<24} {best * 1e3:7.1f} {statistics.median(seen) * 1e3:7.1f} "
              f"{(best - base) * 1e3:11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
