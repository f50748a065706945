"""One digest of every command-line output of the benchmark workloads.

    python3 tools/cli_digest.py [SEED ...]        (default seeds: 1 2 3)

For each seed, runs every probe and query of the ``charts``, ``exprs`` and
``certify`` workloads of ``perfbench/``, then ``axioms`` and ``axioms
--check``, then ``dist`` and ``bisim --format chart`` on each malformed
chart text of ``corpus/malformed_charts.json``, ``dist`` and ``bisim
--format diag`` on each row of ``corpus/malformed_diagrams.json``, ``dist
--table`` on every two rows of ``corpus/pairs.txt`` in both formats and on
the cycle charts of ``workloads.cycle`` with n and n + 1 states for n = 2
to 12, then ``bisim``, ``strat``, ``derive`` and ``check`` of the derived
certificate on those same rows in both formats, ``compile`` of each row in
both formats, and ``bisim``, ``derive`` and ``check`` of the derived
certificate on those same cycle charts, then expressions whose states
nest binders or form long loops: ``dist --table`` and ``compile`` on
``workloads.nested(k)`` against ``mu v1.a.b.v1`` for k = 2 to 8 and on
``workloads.long_loop(n)`` against ``mu v1.a.v1`` for n in 25, 50, 100,
150 and 200, and ``bisim``, ``derive`` and ``check`` of the derived
certificate on those nested pairs, then ``check`` on each row of
``corpus/malformed_certificates.json``, then ``dist --table``, ``bisim``,
``derive`` and ``check`` of the derived certificate on edited chart
texts (state lines shuffled, lines repeated, comment lines and trailing
comments, the alphabet line last) of the cycle pairs with n and n + 1
states for n = 2 to 8, of each n-cycle against its unfolding to 2n
states for n = 2 to 5, and of random chart pairs, some of them
isomorphic, and last the parser's own answers: ``--help``, no arguments at all, and
each of the eight commands with ``--help`` and with no arguments, all
through ``chartdist.cli.main`` in this process.  A ``CertOf``
placeholder is filled as ``perfbench/run.py`` fills it: with the output of
the ``derive`` it names, once that output has been judged right.  Prints
the number of calls and one SHA-256 over each call's argv, exit code,
stdout and stderr, so two checkouts that print the same line answer all of
those calls byte for byte alike.

A second line goes on, with the same count and digest, to diagram texts
that are spelled unusually or fail late (``diagram_spellings``): ``dist
--table``, ``bisim``, ``strat``, ``derive`` and ``check`` of the
certificate a ``derive`` printed on each pair, and ``compile`` of each
text.

A third line goes on, with the same count and digest, to the rows of
``corpus/malformed_expressions.json``, each under its ``--alphabet``:
``dist`` with the row on the left against ``0``, on the right against
``0``, and on both sides, beside the next row on the right, whose error
the left one's must win over; and ``compile`` of the row.

A fourth line goes on, with the same count and digest, to the input
shapes that were once superlinear in a front end (``row_n_pairs``): a nest
of n distinct binders, ``mu v1.….mu vn.a.(v1+vn+0)``, for n in 25, 50,
100 and 200; n ``act(a)`` merged into one wire, then n times ``; copy ;
id(>) * del`` or n times ``; id(>)``, then ``; act(b)``, for n in 10, 25
and 50; and a tensor of n ``act(a)``, for n in 50 and 200.  Each shape
is paired at distance 0 and at a nonzero distance: ``dist --table``,
``bisim``, ``strat``, ``derive`` and ``check`` of the derived certificate
on each pair, and ``compile`` of each text.

A fifth line goes on, with the same count and digest, to ``render`` in
its three formats: of each row of ``corpus/pairs.txt`` as an expression
and as a diagram, of each cycle chart and each edited chart text, and of
each text of ``diagram_spellings`` under its flags.

Run it from anywhere: it imports the program from the ``src/`` and the
workloads from the ``perfbench/`` beside it, reads the chart, diagram,
expression and certificate texts from the ``corpus/`` beside it, and
writes no file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import chartdist  # noqa: E402
import chartdist.cli  # noqa: E402
import oracle  # noqa: E402  (perfbench/oracle.py)
import run as bench  # noqa: E402  (perfbench/run.py)
import workloads  # noqa: E402

COMMANDS = ("dist", "bisim", "strat", "compile", "derive", "check", "render", "axioms")


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


def malformed_diagram_calls():
    """argv of dist and bisim on each pair of diagram texts that fails to
    parse or type, under the row's --alphabet and --max-states."""
    rows = json.loads((ROOT / "corpus" / "malformed_diagrams.json").read_text())
    for row in rows:
        flags = [] if row["alphabet"] is None else ["--alphabet", row["alphabet"]]
        if row["max_states"] is not None:
            flags += ["--max-states", str(row["max_states"])]
        for command in ("dist", "bisim"):
            yield [command, "--format", "diag", *flags, row["left"], row["right"]]


def corpus_rows():
    """The (expression, diagram) text pairs of corpus/pairs.txt."""
    lines = [l.strip() for l in (ROOT / "corpus" / "pairs.txt").read_text().splitlines()]
    return [l.split("\t") for l in lines if l and not l.startswith("#")]


def corpus_pairs():
    """(--format, left, right) of every two rows of corpus/pairs.txt, in
    both formats."""
    for (e1, d1), (e2, d2) in itertools.combinations(corpus_rows(), 2):
        yield "expr", e1, e2
        yield "diag", d1, d2


def cycle_pairs():
    """(--format, left, right) of the cycle charts with n and n + 1 states."""
    for n in range(2, 13):
        yield ("chart", *(oracle.chart_text(workloads.cycle(k)) for k in (n, n + 1)))


def table_calls():
    """argv of dist --table on every two rows of corpus/pairs.txt, in both
    formats, and on the cycle charts with n and n + 1 states."""
    for fmt, left, right in itertools.chain(corpus_pairs(), cycle_pairs()):
        yield ["dist", "--table", "--format", fmt, left, right]


def derived_calls(commands, pairs):
    """(argv, outcome) of each command on each pair, a derive being
    followed by check of the certificate it printed."""
    for fmt, left, right in pairs:
        for command in commands:
            argv = [command, "--format", fmt, left, right]
            outcome = call(argv)
            yield argv, outcome
            if command == "derive":
                argv = ["check", outcome[1], "--format", fmt, left, right]
                yield argv, call(argv)


def query_calls():
    """(argv, outcome) of bisim, strat, derive and check on every two rows
    of corpus/pairs.txt in both formats, of compile on each row in both
    formats, and of bisim, derive and check on the cycle charts."""
    yield from derived_calls(("bisim", "strat", "derive"), corpus_pairs())
    for row in corpus_rows():
        for fmt, text in zip(("expr", "diag"), row):
            argv = ["compile", "--format", fmt, text]
            yield argv, call(argv)
    yield from derived_calls(("bisim", "derive"), cycle_pairs())


def certificate_calls():
    """argv of check on each row of the certificate corpus."""
    rows = json.loads((ROOT / "corpus" / "malformed_certificates.json").read_text())
    for row in rows:
        yield ["check", "--format", row["format"], row["cert"], row["left"], row["right"]]


def expression_calls():
    """(argv, outcome) of dist --table and compile on family C against
    mu v1.a.b.v1 and on the long loops against mu v1.a.v1, and of bisim,
    derive and check of the derived certificate on family C."""
    nested = [("expr", oracle.format_expr(workloads.nested(k)), "mu v1.a.b.v1")
              for k in range(2, 9)]
    loops = [("expr", oracle.format_expr(workloads.long_loop(n)),
              oracle.format_expr(workloads.A_LOOP)) for n in (25, 50, 100, 150, 200)]
    for fmt, left, right in nested + loops:
        for argv in (["dist", "--table", "--format", fmt, left, right],
                     ["compile", "--format", fmt, left]):
            yield argv, call(argv)
    yield from derived_calls(("bisim", "derive"), nested)


def edited_chart_text(c, rng):
    """The text of chart c with its state lines in a random order, some
    lines repeated or followed by a comment, comment and blank lines, and
    the alphabet line last."""
    states = list(c.states)
    rng.shuffle(states)
    lines = [f"state {q}" for q in states]
    lines += [f"trans {q} {a} {r}" for (q, a, r) in sorted(c.trans)]
    lines += [f"out {q} v{v}" for (q, v) in sorted(c.outs)]
    edited = ["# an edited chart"]
    for line in lines:
        edited.append(line + rng.choice(["", "", " # again"]))
        if rng.random() < 0.25:
            edited.append(line)
        if rng.random() < 0.1:
            edited.append(rng.choice(["", "# a comment"]))
    edited.insert(rng.randrange(1, len(edited) + 1), f"start {c.start}")
    return "\n".join(edited + ["alphabet a b  # late"]) + "\n"


def edited_chart_pairs():
    """(--format, left, right) of edited texts of the cycle pairs, of
    cycles against their unfoldings, and of random chart pairs."""
    rng = random.Random("edited charts")
    pairs = [(workloads.cycle(n), workloads.cycle(n + 1)) for n in range(2, 9)]
    pairs += [(workloads.cycle(n), workloads.cycle(2 * n, outs_at=(0, n)))
              for n in range(2, 6)]
    for size in (3, 5, 8, 8):
        c = workloads.rand_chart(rng, size)
        pairs += [(c, workloads.rand_chart(rng, size)), (c, workloads.permuted(rng, c))]
    for c1, c2 in pairs:
        yield "chart", edited_chart_text(c1, rng), edited_chart_text(c2, rng)


def edited_chart_calls():
    """(argv, outcome) of dist --table, bisim, derive and check of the
    derived certificate on the edited chart pairs."""
    pairs = list(edited_chart_pairs())
    for fmt, left, right in pairs:
        argv = ["dist", "--table", "--format", fmt, left, right]
        yield argv, call(argv)
    yield from derived_calls(("bisim", "derive"), pairs)


def diagram_spellings():
    """(flags, left, right) of diagram texts with blanks inside leaves, one
    leaf spelled two ways, 500 nested parentheses, a letter outside
    --alphabet at the second distinct letter, and an ill-typed text beside
    one that does not parse."""
    nested = "(" * 500 + "act(a) ; act(b)" + ")" * 500
    return [
        ((), "act( a ) ; act(b)", "act(a) ; act( b )"),
        ((), "sym( > , < ) * id( ) ; sym(<,>)", "id(><)"),
        ((), "copy ; act(a) * act( a ) ; act (a) * act(\ta\n) ; merge", "act(a)"),
        ((), nested, "act(a) ; act(b)"),
        ((), nested, "act(a) ; act(a)"),
        (("--alphabet", "a"), "act(a) ; act(a) ; act(b)", "act(a)"),
        (("--alphabet", "a"), "act(a)", "act(a) ; act( b )"),
        ((), "act(a) ; merge", "copy ;"),
        ((), "act(a) ; merge", "act(a)"),
    ]


def spelling_calls():
    """(argv, outcome) of dist --table, bisim, strat, derive and check of
    the certificate a derive printed on the diagram_spellings, and of
    compile on each text."""
    for flags, left, right in diagram_spellings():
        for argv in (["dist", "--table", left, right], ["bisim", left, right],
                     ["strat", left, right], ["derive", left, right],
                     ["compile", left], ["compile", right]):
            argv[1:1] = ["--format", "diag", *flags]
            outcome = call(argv)
            yield argv, outcome
            if argv[0] == "derive" and outcome[0] == 0:
                argv = ["check", outcome[1], *argv[1:]]
                yield argv, call(argv)


def malformed_expression_calls():
    """argv of dist with each malformed expression on the left, on the
    right and, beside the next row, on both sides, and of compile of it,
    under the row's --alphabet."""
    rows = json.loads((ROOT / "corpus" / "malformed_expressions.json").read_text())
    for row, other in zip(rows, rows[1:] + rows[:1]):
        flags = [] if row["alphabet"] is None else ["--alphabet", row["alphabet"]]
        text = row["text"]
        for command, *inputs in (("dist", text, "0"), ("dist", "0", text),
                                 ("dist", text, other["text"]), ("compile", text)):
            yield [command, *flags, *inputs]


def row_n_pairs():
    """(--format, left, right) of each shape of the fourth line at distance
    0 and at a nonzero distance, the texts spelled as tests/helpers.py
    spells them: nest_text, copy_tree_text, fan_in_text and
    wide_tensor_text."""
    for n in (25, 50, 100, 200):
        nest = "".join(f"mu v{i}." for i in range(1, n + 1)) + f"a.(v1+v{n}+0)"
        yield "expr", nest, "mu v1.a.v1"
        yield "expr", nest, "mu v1.a.b.v1"
    texts = []
    for n in (10, 25, 50):
        merged = "act(a)"
        for _ in range(n - 1):
            merged = f"({merged}) * act(a) ; merge"
        texts += [merged + " ; copy ; id(>) * del" * n + " ; act(b)",
                  merged + " ; id(>)" * n + " ; act(b)"]
    texts += [" * ".join(["act(a)"] * n) for n in (50, 200)]
    for text in texts:  # the last act(b) or act(a) turned into act(c)
        yield "diag", text, text
        yield "diag", text, text[:-2] + "c)"


def row_n_calls():
    """(argv, outcome) of dist --table, bisim, strat, derive and check of
    the derived certificate on the row_n_pairs, and of compile of each of
    their texts."""
    pairs = list(row_n_pairs())
    for fmt, left, right in pairs:
        argv = ["dist", "--table", "--format", fmt, left, right]
        yield argv, call(argv)
    yield from derived_calls(("bisim", "strat", "derive"), pairs)
    for fmt, text in dict.fromkeys((fmt, text) for fmt, *texts in pairs for text in texts):
        argv = ["compile", "--format", fmt, text]
        yield argv, call(argv)


def render_calls():
    """argv of render on each row of corpus/pairs.txt in both formats, on
    each text of the cycle and the edited chart pairs, and on each text of
    the diagram_spellings."""
    for row in corpus_rows():
        for fmt, text in zip(("expr", "diag"), row):
            yield ["render", "--format", fmt, text]
    charts = itertools.chain(cycle_pairs(), edited_chart_pairs())
    for text in dict.fromkeys(text for _, *texts in charts for text in texts):
        yield ["render", "--format", "chart", text]
    for flags, *texts in diagram_spellings():
        for text in texts:
            yield ["render", "--format", "diag", *flags, text]


def parser_calls():
    """argv of the root and of each command, with --help and with no
    arguments, whose usage, help and error texts argparse prints."""
    for prefix in ([], *([c] for c in COMMANDS)):
        yield [*prefix, "--help"]
        yield prefix


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
    for args in (["axioms"], ["axioms", "--check"], *malformed_chart_calls(),
                 *malformed_diagram_calls(), *table_calls()):
        digest.update(repr((args, call(args))).encode())
        calls += 1
    for args, outcome in itertools.chain(query_calls(), expression_calls()):
        digest.update(repr((args, outcome)).encode())
        calls += 1
    for args in certificate_calls():
        digest.update(repr((args, call(args))).encode())
        calls += 1
    for args, outcome in edited_chart_calls():
        digest.update(repr((args, outcome)).encode())
        calls += 1
    for args in parser_calls():
        digest.update(repr((args, call(args))).encode())
        calls += 1
    print(f"{calls} calls, sha256 {digest.hexdigest()}")
    for args, outcome in spelling_calls():
        digest.update(repr((args, outcome)).encode())
        calls += 1
    print(f"{calls} calls, sha256 {digest.hexdigest()}")
    for args in malformed_expression_calls():
        digest.update(repr((args, call(args))).encode())
        calls += 1
    print(f"{calls} calls, sha256 {digest.hexdigest()}")
    for args, outcome in row_n_calls():
        digest.update(repr((args, outcome)).encode())
        calls += 1
    print(f"{calls} calls, sha256 {digest.hexdigest()}")
    for args in render_calls():
        digest.update(repr((args, call(args))).encode())
        calls += 1
    print(f"{calls} calls, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
