"""One digest of every command-line output of the benchmark workloads.

    python3 tools/cli_digest.py [SEED ...]        (default seeds: 1 2 3)

For each seed, runs every probe and query of the ``charts``, ``exprs`` and
``certify`` workloads of ``perfbench/``, then ``axioms`` and ``axioms
--check``, then ``dist`` and ``bisim --format chart`` on each malformed
chart text of ``corpus/malformed_charts.json``, through
``chartdist.cli.main`` in this process.  A ``CertOf``
placeholder is filled as ``perfbench/run.py`` fills it: with the output of
the ``derive`` it names, once that output has been judged right.  Prints
the number of calls and one SHA-256 over each call's argv, exit code,
stdout and stderr, so two checkouts that print the same line answer all of
those calls byte for byte alike.

Run it from anywhere: it imports the program from the ``src/`` and the
workloads from the ``perfbench/`` beside it, reads the chart texts from the
``corpus/`` beside it, and writes no file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import chartdist  # noqa: E402
import chartdist.cli  # noqa: E402
import run as bench  # noqa: E402  (perfbench/run.py)
import workloads  # noqa: E402


def call(argv):
    """(exit code or exception name, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = chartdist.cli.main(argv)
        except Exception as e:  # a crash is an outcome to digest too
            code = type(e).__name__
    return code, out.getvalue(), err.getvalue()


def diagram_distance(text1, text2):
    return chartdist.diagram_distance(chartdist.parse_term(text1),
                                      chartdist.parse_term(text2))


def outcomes(queries):
    """(argv, outcome) per query, run in order; argv is None when it
    names a certificate that no judged derive printed."""
    runner = bench.Runner(queries, chartdist.cli)
    for q in queries:
        argv = runner.argv(q)
        if argv is None:
            yield None, ("no certificate",)
            continue
        code, out, err = call(argv)
        if q.index not in runner.pinned and code == q.code and runner.judge(q, out):
            runner.pinned[q.index] = out
        yield argv, (code, out, err)


def malformed_chart_calls():
    """argv of dist and bisim on each malformed chart text, against a
    one-state chart."""
    rows = json.loads((ROOT / "corpus" / "malformed_charts.json").read_text())
    for row in rows:
        flags = [] if row["alphabet"] is None else ["--alphabet", row["alphabet"]]
        for command in ("dist", "bisim"):
            yield [command, "--format", "chart", *flags, row["text"], "state q\nstart q\n"]


def main(argv=None):
    seeds = [int(s) for s in (sys.argv[1:] if argv is None else argv)] or [1, 2, 3]
    digest = hashlib.sha256()
    calls = 0
    for seed in seeds:
        for name in workloads.WORKLOADS:
            queries, probes, _ = workloads.build(name, seed, diagram_distance)
            for batch in (probes, queries):
                for args, outcome in outcomes(batch):
                    digest.update(repr((args, outcome)).encode())
                    calls += 1
    for args in (["axioms"], ["axioms", "--check"], *malformed_chart_calls()):
        digest.update(repr((args, call(args))).encode())
        calls += 1
    print(f"{calls} calls, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
