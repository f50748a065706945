"""End-to-end command line behaviour, including exit codes."""

import inspect
import math
import os
import random
import re
import shlex
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import chartdist.bisim
import chartdist.cli
import chartdist.derive
import chartdist.diagram
import chartdist.expr
import chartdist.regbeh
from chartdist import (
    Chart, Prefix, axiom_catalog, bd_stratified, bisimilar, diagram_distance, disjoint_union,
    expand, format_chart_text, format_expr, format_term, free_vars, from_expression,
    interpret, joint_pair, kleene_solve, open_chart, parse_chart_text, parse_expr,
    parse_term, reachable, stratified_level, typecheck,
)
from chartdist.chart import state_key
from chartdist.cli import (
    EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_REJECTED, EXIT_TYPE, EXIT_USAGE,
    main,
)
from chartdist.metric import level_distance
from helpers import (
    brute_distance, brute_related_pairs, copy_tree_text, corpus_rows, cycle_text, fan_in_text,
    flip_one_act, nest_text, perturb_expr, python, rand_chart, rand_expr, rand_forward,
    wide_tensor_text,
)

FIG_LEFT = "a.(a.0 + b.mu v1.a.v1)+b.mu v1.a.v1"
FIG_RIGHT = "mu v2.(a.v2 + b.mu v1.a.a.v1)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def patch_everywhere(patch, original, replacement):
    """Replace original in every chartdist module namespace that binds it."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "chartdist" or module_name.startswith("chartdist."):
            for name, value in list(vars(module).items()):
                if value is original:
                    patch.setattr(module, name, replacement)


@contextmanager
def counting_refinements(monkeypatch):
    """A list of the successor lists of the Refinements built inside the
    block."""
    built = []
    original = chartdist.bisim.Refinement

    class CountedRefinement(original):
        def __init__(self, succ, outs):
            built.append(succ)
            super().__init__(succ, outs)

    with monkeypatch.context() as patch:
        patch_everywhere(patch, original, CountedRefinement)
        yield built


def run_counting_refinements(monkeypatch, capsys, *argv):
    """Run a command; its (code, out, err) and how many Refinements it built."""
    with counting_refinements(monkeypatch) as built:
        result = run(capsys, *argv)
    return result, len(built)


def test_dist_expressions(capsys):
    code, out, _ = run(capsys, "dist", FIG_LEFT, FIG_RIGHT)
    assert code == EXIT_OK
    assert out == "1/4 (level 2)\n"


def test_dist_bisimilar_pair(capsys):
    code, out, _ = run(capsys, "dist", "mu v1.a.v1", "mu v1.a.a.v1")
    assert code == EXIT_OK
    assert out == "0 (bisimilar)\n"


def test_dist_is_deterministic(capsys):
    first = run(capsys, "dist", "--table", FIG_LEFT, FIG_RIGHT)
    second = run(capsys, "dist", "--table", FIG_LEFT, FIG_RIGHT)
    assert first == second
    assert "\t" in first[1]


def test_dist_diagrams(capsys):
    code, out, _ = run(capsys, "dist", "--format", "diag",
                       "act(a) ; del", "act(b) ; del")
    assert code == EXIT_OK
    assert out == "1 (level 0)\n"


def test_dist_reads_files(tmp_path, capsys):
    left = tmp_path / "left.txt"
    left.write_text(FIG_LEFT)
    code, out, _ = run(capsys, "dist", str(left), FIG_RIGHT)
    assert code == EXIT_OK
    assert out == "1/4 (level 2)\n"


def test_inputs_with_a_line_break_are_never_paths(tmp_path, monkeypatch, capsys):
    one_state = "state q\nstart q\n"
    monkeypatch.chdir(tmp_path)
    (tmp_path / one_state).write_text("state q\nstart q\ntrans q a q\n")
    (tmp_path / "a.0").write_text("b.0")
    assert run(capsys, "dist", "--format", "chart", one_state, "state r\nstart r\n") == \
        (EXIT_OK, "0 (bisimilar)\n", "")
    assert run(capsys, "dist", "a.0", "b.0") == (EXIT_OK, "0 (bisimilar)\n", "")


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run(capsys, "dist", "-o", str(target), FIG_LEFT, FIG_RIGHT)
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text() == "1/4 (level 2)\n"
    # a report that cannot be written is an error, not a traceback
    missing = tmp_path / "missing" / "result.txt"
    code, out, err = run(capsys, "dist", "-o", str(missing), FIG_LEFT, FIG_RIGHT)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")


def test_bisim_witness_and_exit(capsys):
    code, out, _ = run(capsys, "bisim", "mu v1.a.v1", "mu v1.a.a.v1")
    assert code == EXIT_OK
    header, *pairs = out.splitlines()
    assert header == "bisimilar"
    assert pairs and all("\t" in l for l in pairs)
    assert pairs == sorted(pairs)
    # each expression's expansion, named by canonical texts
    assert out == ("bisimilar\nmu v1.a.v1\ta.mu v1.a.a.v1\n"
                   "mu v1.a.v1\tmu v1.a.a.v1\n")


def test_bisim_witness_ranges(capsys):
    # a chart's witness includes its unreachable states
    left = "state x\nstate y\nstart x\ntrans x a x\ntrans y a y\n"
    right = "state p\nstart p\ntrans p a p\n"
    assert run(capsys, "bisim", "--format", "chart", left, right) == \
        (EXIT_OK, "bisimilar\nx\tp\ny\tp\n", "")
    # diagram states are numbers, listed in numeric order
    chain = " ; ".join(["act(a)"] * 11)
    assert run(capsys, "bisim", "--format", "diag", chain, chain) == \
        (EXIT_OK, "bisimilar\n" + "".join(f"row 1\t{q}\t{q}\n" for q in range(12)), "")


def test_bisim_negative_exit(capsys):
    code, out, _ = run(capsys, "bisim", "a.v1+a.v2", "a.v1")
    assert code == EXIT_USAGE
    assert out == "not bisimilar (level 2)\n"


def test_strat(capsys):
    assert run(capsys, "strat", "mu v1.a.v1", "mu v1.a.a.v1")[:2] == (EXIT_OK, "inf\n")
    assert run(capsys, "strat", "a.a.0", "a.0")[:2] == (EXIT_OK, "1\n")
    assert run(capsys, "strat", "v1", "v2")[:2] == (EXIT_OK, "0\n")


def test_compile_expression_round_trips(capsys):
    code, out, _ = run(capsys, "compile", "mu v1.a.v1+b.v2")
    assert code == EXIT_OK
    chart = parse_chart_text(out)
    assert format_chart_text(chart) == out


def test_compile_diagram(capsys):
    code, out, _ = run(capsys, "compile", "--format", "diag",
                       "copy ; act(a) * act(b) ; merge")
    assert code == EXIT_OK
    assert parse_chart_text(out).trans


def test_compile_rejects_multi_input_diagram(capsys):
    # chart compilation wants one forward input wire
    code, _, err = run(capsys, "compile", "--format", "diag", "merge")
    assert code == EXIT_TYPE
    assert "bend" in err


def test_dist_chart_format(capsys, tmp_path):
    compiled = run(capsys, "compile", FIG_LEFT)[1]
    f1 = tmp_path / "left.chart"
    f1.write_text(compiled)
    f2 = tmp_path / "right.chart"
    f2.write_text(run(capsys, "compile", FIG_RIGHT)[1])
    code, out, _ = run(capsys, "dist", "--format", "chart", str(f1), str(f2))
    assert code == EXIT_OK
    assert out == "1/4 (level 2)\n"


def test_compile_chart_renumbers_states(capsys):
    text = "alphabet a\nstate x\nstate y\nstate z\nstart y\ntrans y a x\nout x v1\n"
    assert run(capsys, "compile", "--format", "chart", text) == (
        EXIT_OK,
        "alphabet a\nstate 0\nstate 1\nstate 2\nstart 1\ntrans 1 a 0\nout 0 v1\n", "")
    # states are numbered in declaration order, not name order, and the
    # unreachable state 2 is kept
    text = ("state b\nstate 10\nstate a\nstate 2\nstart a\n"
            "trans a x b\ntrans b x 10\nout 10 v1\n")
    assert run(capsys, "compile", "--format", "chart", text) == (
        EXIT_OK,
        "alphabet x\nstate 0\nstate 1\nstate 2\nstate 3\nstart 2\n"
        "trans 0 x 1\ntrans 2 x 0\nout 1 v1\n", "")


def test_compile_prints_its_readers_numbering_and_builds_no_chart(monkeypatch, capsys):
    """compile prints the numbered chart its reader builds as it is: with
    Chart.__init__ raising, it prints in all three formats what it did."""
    def refuse(self, *args):
        raise AssertionError("compile built a Chart")

    monkeypatch.setattr(chartdist.chart.Chart, "__init__", refuse)
    assert run(capsys, "compile", "mu v1.a.v1+b.v2") == (
        EXIT_OK, "alphabet a b\nstate 0\nstate 1\nstart 0\ntrans 0 a 0\ntrans 0 b 1\n"
        "out 1 v2\n", "")
    assert run(capsys, "compile", "--format", "diag", "copy ; act(a) * act(b) ; merge") == (
        EXIT_OK, "alphabet a b\nstate 0\nstate 1\nstate 2\nstart 0\ntrans 0 a 1\n"
        "trans 0 b 2\nout 1 v1\nout 2 v1\n", "")
    text = ("state b\nstate 10\nstate a\nstate 2\nstart a\ntrans a x b\ntrans b x 10\n"
            "out 10 v1\ntrans a y a\nout a v2\n")
    assert run(capsys, "compile", "--format", "chart", text) == (
        EXIT_OK, "alphabet x y\nstate 0\nstate 1\nstate 2\nstate 3\nstart 2\n"
        "trans 0 x 1\ntrans 2 x 0\ntrans 2 y 2\nout 1 v1\nout 2 v2\n", "")


def test_derive_and_check_chart_files(tmp_path, capsys):
    left, right = tmp_path / "c8.chart", tmp_path / "c9.chart"
    left.write_text(cycle_text(8))
    right.write_text(cycle_text(9))
    files = [str(left), str(right)]
    assert run(capsys, "dist", "--format", "chart", *files)[:2] == \
        (EXIT_OK, "1/16 (level 4)\n")
    code, cert, _ = run(capsys, "derive", "--format", "chart", *files)
    assert code == EXIT_OK and cert.startswith("(coupling 1/16 ")
    assert run(capsys, "check", "--format", "chart", cert, *files) == \
        (EXIT_OK, "1/16\n", "")


def test_derive_and_check_need_no_recursion():
    # a 300-step chain under a recursion limit of 200: the certificate
    # nests 300 couplings deep
    script = ("import sys\nsys.setrecursionlimit(200)\n"
              "from chartdist.cli import main\nsys.exit(main(sys.argv[1:]))\n")
    left = " ; ".join(["act(a)"] * 300 + ["del"])
    right = " ; ".join(["act(a)"] * 301 + ["del"])
    derived = python(script, "derive", "--format", "diag", left, right)
    assert derived.returncode == EXIT_OK, derived.stderr
    checked = python(script, "check", "--format", "diag", derived.stdout, left, right)
    assert (checked.returncode, checked.stdout, checked.stderr) == \
        (EXIT_OK, f"{Fraction(1, 2 ** 300)}\n", "")


def test_derive_check_round_trip(tmp_path, capsys):
    code, cert_text, _ = run(capsys, "derive", "a.a.0", "a.0")
    assert code == EXIT_OK
    cert = tmp_path / "cert.txt"
    cert.write_text(cert_text)
    code, out, _ = run(capsys, "check", str(cert), "a.a.0", "a.0")
    assert code == EXIT_OK
    assert out == "1/2\n"


def test_derive_with_eps(capsys):
    code, out, _ = run(capsys, "derive", "--eps", "3/4", "a.a.0", "a.0")
    assert code == EXIT_OK
    assert out.startswith("(weaken 3/4 ")


def test_derive_below_distance(capsys):
    code, _, err = run(capsys, "derive", "--eps", "1/4", "a.a.0", "a.0")
    assert code == EXIT_REJECTED
    assert "1/2" in err


def test_dist_prints_the_level_distance(capsys):
    """dist prints 2^-level as metric.level_distance prints it."""
    for n in range(71):
        code, out, _ = run(capsys, "dist", "a." * n + "0", "a." * (n + 1) + "0")
        assert (code, out) == (EXIT_OK, f"{level_distance(n)} (level {n})\n")


def unlimited_text(n):
    """The decimal text of n, however many digits it has."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_dist_prints_any_level(capsys, monkeypatch):
    """2^20000 has 6,021 digits, more than CPython turns into text by
    default; dist prints it whole, in the headline and in every table
    cell, and leaves the digit limit as it found it."""
    want = f"1/{unlimited_text(2 ** 20000)}"
    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(chartdist.bisim.Refinement, "least_level", lambda self, rows: 20000)
    code, out, _ = run(capsys, "dist", "a.0", "b.0")
    assert (code, out) == (EXIT_OK, f"{want} (level 20000)\n")
    assert len(want) == 2 + 6021
    monkeypatch.setattr(chartdist.bisim.Refinement, "level", lambda self, x, y: 20000)
    code, out, _ = run(capsys, "dist", "--table", "a.0", "b.0")
    _, *rows = out.splitlines()[1:]
    assert code == EXIT_OK and len(rows) == 3
    assert all(row.split("\t")[1:] == [want] * 3 for row in rows)
    assert sys.get_int_max_str_digits() == limit


def test_bounds_of_any_size(capsys):
    """check prints, and check and derive --eps read and report, a bound
    of 4,301 digits, with no traceback and the digit limit untouched."""
    bound = f"1/{unlimited_text(2 ** 14285)}"
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "check", f"(weaken {bound} (bisim))", "a.0", "a.0") == \
        (EXIT_OK, f"{bound}\n", "")
    assert run(capsys, "check", f"(weaken {bound} (top))", "a.0", "a.0") == \
        (EXIT_REJECTED, "", f"error: weakening to {bound} below certified 1 (at cert)\n")
    assert run(capsys, "derive", "--eps", bound, "a.0", "b.0") == \
        (EXIT_REJECTED, "", f"error: requested bound {bound} is below the distance 1\n")
    assert sys.get_int_max_str_digits() == limit


def test_derive_eps_out_of_range(capsys):
    """--eps is read by its argparse type: a bad bound is a usage error,
    reported ahead of the inputs, even when their boundaries differ."""
    for argv, message in [(["7/4", "a.a.0", "a.0"], "bound 7/4 outside [0, 1]"),
                          (["1/0", "a.a.0", "a.0"], "bad rational '1/0'"),
                          (["7/4", "--format", "diag", "copy", "merge"],
                           "bound 7/4 outside [0, 1]")]:
        code, out, err = run(capsys, "derive", "--eps", *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith(f"error: argument --eps: {message}\n")


def test_check_rejects_lowered_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.txt"
    cert.write_text('(coupling 1/4 ((move (act a "a.0") (act a "0") (top))))')
    code, _, err = run(capsys, "check", str(cert), "a.a.0", "a.0")
    assert code == EXIT_REJECTED
    assert "error" in err


def test_parse_error_exit(capsys):
    assert run(capsys, "dist", "a.(", "0")[0] == EXIT_PARSE
    assert run(capsys, "check", "(top", "0", "0")[0] == EXIT_PARSE
    assert run(capsys, "dist", "--format", "diag", "copy ;", "copy")[0] == EXIT_PARSE
    # diagrams and certificates follow the letter rule of expressions
    assert run(capsys, "dist", "--format", "diag", "act(é)", "act(a)")[0] == EXIT_PARSE
    assert run(capsys, "render", "--format", "diag", "act(é)")[0] == EXIT_PARSE
    cert = '(coupling 1 ((move (act é "0") (act a "0"))))'
    assert run(capsys, "check", cert, "a.0", "b.0")[0] == EXIT_PARSE


def test_check_rejects_the_triang_head(capsys):
    assert run(capsys, "check", "(triang ((top) (top)))", "a.0", "a.0") == (
        EXIT_PARSE, "", "error: unknown certificate head 'triang' (at offset 1)\n")


def test_type_error_exit(capsys):
    code, _, err = run(capsys, "dist", "--format", "diag", "copy ; copy", "copy")
    assert code == EXIT_TYPE
    assert "error" in err
    # boundary mismatch between the two sides
    assert run(capsys, "dist", "--format", "diag", "copy", "merge")[0] == EXIT_TYPE


def test_budget_exit(capsys):
    code, _, err = run(capsys, "dist", "--max-states", "1", "a.0", "b.0")
    assert code == EXIT_BUDGET
    assert "error" in err


@pytest.mark.parametrize("fmt, left, right, what", [
    ("expr", "a.0", "b.0", "expansion"),
    ("diag", "act(a) ; del", "act(b) ; del", "open chart"),
])
def test_budget_is_per_input(capsys, fmt, left, right, what):
    """--max-states bounds the states each input reaches, not the joint:
    each side here reaches 2 states, and the joint has more."""
    assert run(capsys, "dist", "--format", fmt, "--max-states", "2", left, right) == \
        (EXIT_OK, "1 (level 0)\n", "")
    assert run(capsys, "dist", "--format", fmt, "--max-states", "1", left, right) == \
        (EXIT_BUDGET, "", f"error: {what} exceeded 1 states\n")


@pytest.mark.parametrize("command", ["dist", "bisim", "strat", "derive", "check"])
def test_diagram_boundary_mismatch(capsys, command):
    cert = ["(top)"] if command == "check" else []
    code, out, err = run(capsys, command, *cert, "--format", "diag", "copy", "merge")
    assert (code, out) == (EXIT_TYPE, "")
    assert err == "error: the two diagrams have different boundaries\n"


def test_dist_table_tags_diagram_states(capsys):
    code, out, _ = run(capsys, "dist", "--table", "--format", "diag",
                       "act(a) ; act(a)", "act(a)")
    assert code == EXIT_OK
    # the states of a diagram's open chart are numbered breadth-first
    assert out == (
        "1/2 (level 1)\n"
        "\tL:0\tL:1\tL:2\tR:0\tR:1\n"
        "L:0\t0\t1/2\t1\t1/2\t1\n"
        "L:1\t1/2\t0\t1\t0\t1\n"
        "L:2\t1\t1\t0\t1\t0\n"
        "R:0\t1/2\t0\t1\t0\t1\n"
        "R:1\t1\t1\t0\t1\t0\n")


def multi_row_pairs():
    """Random diagram pairs with several input and output wires, and the
    catalogue's axioms with more than one payload row."""
    rng = random.Random(2024)
    pairs = []
    for _ in range(60):
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        t1 = rand_forward(rng, m, n, 3)
        pairs.append((t1, flip_one_act(rng, t1) or rand_forward(rng, m, n, 3)))
    pairs += [(lhs, rhs) for _, lhs, rhs in axiom_catalog()
              if len(interpret(lhs).payload.rows) > 1]
    return pairs


def per_row_bisim(t1, t2):
    """What bisim --format diag prints: the verdict and level from one
    bisimilar call per pair of payload rows, and each row's witness by
    pair elimination on the states its two entries reach."""
    lines, worst = ["bisimilar"], None
    o1, o2 = open_chart(t1), open_chart(t2)
    rows = zip(interpret(t1).payload.rows, interpret(t2).payload.rows,
               [Chart(o1.prechart, e) for e in o1.entries],
               [Chart(o2.prechart, e) for e in o2.entries])
    for i, (r1, r2, c1, c2) in enumerate(rows, start=1):
        ok, level = bisimilar(expand(r1), expand(r2))
        if not ok:
            worst = level if worst is None else min(worst, level)
            continue
        c1, c2 = reachable(c1), reachable(c2)
        related = brute_related_pairs(disjoint_union(c1, c2)[0])
        w = [(q1, q2) for q1 in c1.states for q2 in c2.states
             if (f"L:{q1}", f"R:{q2}") in related]
        for q1, q2 in sorted(w, key=lambda pr: (state_key(pr[0]), state_key(pr[1]))):
            lines.append(f"row {i}\t{q1}\t{q2}")
    if worst is not None:
        return EXIT_USAGE, f"not bisimilar (level {worst})\n"
    return EXIT_OK, "\n".join(lines) + "\n"


def test_multi_row_diagrams_match_per_row_references(capsys, monkeypatch):
    bisimilar_multi_rows = 0
    for i, (t1, t2) in enumerate(multi_row_pairs()):
        left, right = format_term(t1), format_term(t2)
        want_bisim = per_row_bisim(t1, t2)
        d = diagram_distance(t1, t2)
        level = d.denominator.bit_length() - 1
        want_dist = "0 (bisimilar)\n" if d == 0 else f"{d} (level {level})\n"
        want_strat = "inf\n" if d == 0 else f"{level}\n"
        if "row 2\t" in want_bisim[1]:
            bisimilar_multi_rows += 1
        for command, want in (("bisim", want_bisim), ("dist", (EXIT_OK, want_dist)),
                              ("strat", (EXIT_OK, want_strat))):
            got, built = run_counting_refinements(
                monkeypatch, capsys, command, "--format", "diag", left, right)
            assert (got[:2], built) == (want, 1), (i, command)
        (code, cert, _), built = run_counting_refinements(
            monkeypatch, capsys, "derive", "--format", "diag", left, right)
        assert (code, built) == (EXIT_OK, 1), i
        got, built = run_counting_refinements(
            monkeypatch, capsys, "check", "--format", "diag", cert, left, right)
        assert (got[:2], built) == ((EXIT_OK, f"{d}\n"), 1), i
    assert bisimilar_multi_rows >= 3


@pytest.mark.parametrize("command, fmt", [
    ("dist", "expr"), ("dist", "chart"), ("strat", "expr"), ("strat", "chart"),
    ("bisim", "expr"), ("bisim", "chart"), ("derive", "expr"), ("derive", "chart"),
    ("check", "expr"), ("check", "chart"),
])
def test_every_query_builds_one_refinement(capsys, monkeypatch, command, fmt):
    for left, right in ((FIG_LEFT, FIG_RIGHT), ("mu v1.a.v1", "mu v1.a.a.v1")):
        want = run(capsys, "dist", left, right)[1]
        if fmt == "chart":
            left, right = (run(capsys, "compile", e)[1] for e in (left, right))
        argv = ["--format", fmt, left, right]
        if command == "check":
            argv.insert(0, run(capsys, "derive", *argv)[1])
        (code, out, _), built = run_counting_refinements(
            monkeypatch, capsys, command, *argv)
        assert built == 1
        assert code == (EXIT_USAGE if out.startswith("not bisimilar") else EXIT_OK)
        if command == "dist":
            assert out == want


def test_names_are_made_only_where_printed(capsys, monkeypatch):
    """dist and strat without --table, bisim on a pair that is not
    bisimilar, and compile name no state in any format: neither the one name function
    of tagged states nor the expression printer runs.  dist --table, which
    prints the names, runs them.  A bisimilar bisim names its witness
    states in their own inputs, never tagged."""
    calls = []
    for original in (chartdist.chart._tag, chartdist.expr._text):
        def counted(*args, original=original):
            calls.append(original.__name__)
            return original(*args)
        patch_everywhere(monkeypatch, original, counted)
    cases = {"expr": (FIG_LEFT, FIG_RIGHT), "chart": (cycle_text(3), cycle_text(4)),
             "diag": ("act(a) ; act(a) ; del", "act(a) ; act(b) ; del")}
    for fmt, (left, right) in cases.items():
        for command in ("dist", "strat", "bisim"):
            code, _, err = run(capsys, command, "--format", fmt, left, right)
            assert (code, err) == (EXIT_USAGE if command == "bisim" else EXIT_OK, ""), fmt
        code, _, err = run(capsys, "compile", "--format", fmt, left)
        assert (code, err) == (EXIT_OK, ""), fmt
        assert calls == [], fmt
        assert run(capsys, "dist", "--table", "--format", fmt, left, right)[0] == EXIT_OK
        assert set(calls) == {"_text" if fmt == "expr" else "_tag"}, fmt
        calls.clear()
    loop = "state q\nstart q\ntrans q a q\n"
    for fmt, left, right in (("chart", loop, loop + "state z\nout z v1\n"),
                             ("diag", "act(a) ; copy", "act(a) ; copy")):
        code, out, _ = run(capsys, "bisim", "--format", fmt, left, right)
        assert (code, out.splitlines()[0], calls.count("_tag")) == (EXIT_OK, "bisimilar", 0), fmt


def test_expression_commands_build_no_expr(capsys, monkeypatch):
    """Every command on expressions reads its texts straight into nameless
    nodes: no Expr node is built, so the intern table is never written."""
    built = []
    original = chartdist.expr._intern

    def counted(key, *args):
        built.append(key)
        return original(key, *args)
    monkeypatch.setattr(chartdist.expr, "_intern", counted)
    for left, right in ((FIG_LEFT, FIG_RIGHT), ("mu v1.a.v1", "mu v1.a.a.v1"),
                        ("mu v7.a.(v7+mu v7.b.v7)+v2", "a.v1+v2")):
        for command in ("dist", "strat", "bisim", "derive"):
            assert run(capsys, command, left, right)[2] == "", command
        assert run(capsys, "dist", "--table", left, right)[0] == EXIT_OK
        cert = run(capsys, "derive", left, right)[1]
        assert run(capsys, "check", cert, left, right)[0] == EXIT_OK
        for command in ("compile", "render"):
            assert run(capsys, command, left)[0] == EXIT_OK, command
    assert built == []


def test_every_library_view_builds_one_refinement(monkeypatch):
    for left, right, level in ((FIG_LEFT, FIG_RIGHT, 2),
                               ("mu v1.a.v1", "mu v1.a.a.v1", math.inf)):
        e, f = parse_expr(left), parse_expr(right)
        kinds = {"expr": (e, f), "chart": (expand(e), expand(f)),
                 "diag": (from_expression(e, 0), from_expression(f, 0))}
        for kind, pair in kinds.items():
            for view, want in ((stratified_level, level),
                               (bd_stratified, 0 if level == math.inf else Fraction(1, 4))):
                with counting_refinements(monkeypatch) as built:
                    got = view(*pair)
                assert (got, len(built)) == (want, 1), (view.__name__, kind)
        with counting_refinements(monkeypatch) as built:
            ok, _ = bisimilar(*kinds["chart"])
        assert (ok, len(built)) == (level == math.inf, 1)


def test_routes_agree_on_random_expression_pairs(capsys):
    # an expression pair, its expanded or compiled charts, and its
    # from_expression diagrams at the width of the pair's largest variable
    # give one level and one distance in the library, and one dist and
    # strat output and one bisim exit code on the command line; every
    # third pair goes under a common prefix of 1 to 3 letters, which
    # raises its level by as many
    rng = random.Random(2020)
    seen = []
    for i in range(240):
        e = rand_expr(rng)
        f = perturb_expr(rng, e) if i % 2 else rand_expr(rng)
        for _ in range(rng.randint(1, 3) if i % 3 == 0 else 0):
            a = rng.choice("ab")
            e, f = Prefix(a, e), Prefix(a, f)
        n = max(free_vars(e) | free_vars(f), default=0)
        kinds = {"expr": (e, f), "chart": (expand(e), expand(f)),
                 "diag": (from_expression(e, n), from_expression(f, n))}
        level = stratified_level(e, f)
        for kind, pair in kinds.items():
            assert stratified_level(*pair) == level, (i, kind)
            assert bd_stratified(*pair) == level_distance(level), (i, kind)
        texts = {"expr": (format_expr(e), format_expr(f)),
                 "chart": tuple(run(capsys, "compile", format_expr(x))[1] for x in (e, f)),
                 "diag": tuple(map(format_term, kinds["diag"]))}
        answers = {kind: (run(capsys, "dist", "--format", kind, *pair)[1],
                          run(capsys, "strat", "--format", kind, *pair)[1],
                          run(capsys, "bisim", "--format", kind, *pair)[0])
                   for kind, pair in texts.items()}
        verdict = "bisimilar" if level == math.inf else f"level {level}"
        want = (f"{level_distance(level)} ({verdict})\n",
                "inf\n" if level == math.inf else f"{level}\n",
                EXIT_OK if level == math.inf else EXIT_USAGE)
        assert set(answers.values()) == {want}, (i, answers)
        seen.append(level)
    assert seen.count(math.inf) >= 25 and sum(1 <= l <= 4 for l in seen) >= 80, seen


def test_dist_table_shares_expression_states(capsys):
    # expressions are expanded together, so the states they have in
    # common appear once, under their canonical texts
    assert run(capsys, "dist", "--table", "a.a.0", "a.0") == (
        EXIT_OK,
        "1/2 (level 1)\n"
        "\t0\ta.0\ta.a.0\n"
        "0\t0\t1\t1\n"
        "a.0\t1\t0\t1/2\n"
        "a.a.0\t1\t1/2\t0\n",
        "")


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    assert run(capsys, "dist", "--table", "a.a.0", "a.0")[1].count("\n") > 1
    assert run(capsys, "dist", "a.a.0", "a.0")[:2] == (EXIT_OK, "1/2 (level 1)\n")
    assert run(capsys, "derive", "--eps", "3/4", "a.a.0", "a.0")[1].startswith(
        "(weaken 3/4 ")
    assert run(capsys, "derive", "a.a.0", "a.0")[:2] == (
        EXIT_OK, '(coupling 1/2 ((move (act a "a.0") (act a "0") (top))))\n')
    target = tmp_path / "out.txt"
    assert run(capsys, "dist", "-o", str(target), "a.a.0", "a.0")[1] == ""
    assert run(capsys, "dist", "--format", "diag", "act(a)", "act(b)")[1] == \
        "1 (level 0)\n"
    assert run(capsys, "dist", "a.a.0", "a.0")[:2] == (EXIT_OK, "1/2 (level 1)\n")
    assert run(capsys, "--help")[0] == EXIT_OK
    assert run(capsys, "strat", "a.a.0", "a.0")[:2] == (EXIT_OK, "1\n")


def test_cycle_certificate_certifies_children_one_iterate_down(capsys):
    # the root starts at level 8 and each coupling certifies its children
    # one iterate below its own, not at their exact distances
    left, right = cycle_text(16), cycle_text(17)
    code, cert, _ = run(capsys, "derive", "--format", "chart", left, right)
    assert code == EXIT_OK and len(cert) < 30000
    assert run(capsys, "check", "--format", "chart", cert, left, right) == \
        (EXIT_OK, "1/256\n", "")


def test_dist_table_matches_kleene_on_cycle_pair(capsys):
    left, right = cycle_text(8), cycle_text(9)
    code, out, _ = run(capsys, "dist", "--table", "--format", "chart", left, right)
    assert code == EXIT_OK
    union, _, _ = disjoint_union(parse_chart_text(left), parse_chart_text(right))
    assert out == "1/16 (level 4)\n" + kleene_solve(union).table.to_tsv()


def test_dist_table_matches_kleene_on_random_pairs(capsys):
    """After its headline, dist --table prints the table of the reference
    Kleene iteration on the joint prechart of the two inputs: random
    chart, expression and forward diagram pairs, half of the expressions
    and diagrams paired with a copy changed in one place."""
    rng = random.Random(19)
    cases = []
    for _ in range(40):
        cases.append(("chart", parse_chart_text, format_chart_text(rand_chart(rng)),
                      format_chart_text(rand_chart(rng))))
        e = rand_expr(rng)
        f = perturb_expr(rng, e) if rng.random() < 0.5 else rand_expr(rng)
        cases.append(("expr", parse_expr, format_expr(e), format_expr(f)))
        m, n = rng.randint(1, 2), rng.randint(0, 2)
        t = rand_forward(rng, m, n, 3)
        u = (rng.random() < 0.5 and flip_one_act(rng, t)) or rand_forward(rng, m, n, 3)
        cases.append(("diag", parse_term, format_term(t), format_term(u)))
    for fmt, parse, left, right in cases:
        code, out, _ = run(capsys, "dist", "--table", "--format", fmt, left, right)
        joint, _ = joint_pair(parse(left), parse(right))
        assert code == EXIT_OK
        assert out.split("\n", 1)[1] == kleene_solve(joint).table.to_tsv(), (left, right)


# derive output on the same-boundary pairs (i, j) of corpus/pairs.txt, per
# format; every pair not listed gets "(top)".  Expression states are named
# by their canonical texts, diagram states by their numbers in the open
# charts.
CORPUS_CERTS = {
    "expr": {
        (1, 6): '(coupling 1/2 ((move (act a "v1") (act a "b.v1") (top))))',
        (7, 9): '(coupling 1/2 ((move (act a "0") (act a "mu v1.a.v1") (top))))',
        (7, 10): '(coupling 1/2 ((move (act a "0") (act a "a.mu v1.a.a.v1") (top))))',
        (9, 10): "(bisim)",
        (11, 12): '(coupling 1/4 ((move (act a "a.0+b.mu v1.a.v1") '
                  '(act a "mu v1.a.v1+b.mu v2.a.a.v2") (coupling 1/2 ('
                  '(move (act a "0") (act a "mu v1.a.v1+b.mu v2.a.a.v2") (top)) '
                  '(move (act b "mu v1.a.v1") (act b "mu v1.a.a.v1") (bisim))))) '
                  '(move (act b "mu v1.a.v1") (act b "mu v1.a.a.v1") (bisim))))',
    },
    "diag": {
        (1, 6): '(coupling 1/2 ((move (act a "L:1") (act a "R:1") (top))))',
        (7, 9): '(coupling 1/2 ((move (act a "L:1") (act a "R:1") (top))))',
        (7, 10): '(coupling 1/2 ((move (act a "L:1") (act a "R:1") (top))))',
        (9, 10): "(bisim)",
        (11, 12): '(coupling 1/4 ((move (act a "L:1") (act a "R:1") (coupling 1/2 ('
                  '(move (act a "L:3") (act a "R:1") (top)) '
                  '(move (act b "L:4") (act b "R:2") (bisim))))) '
                  '(move (act b "L:2") (act b "R:2") (bisim))))',
    },
}


def test_derive_corpus_certificates_are_pinned(capsys):
    rows = corpus_rows()
    seen = 0
    for i, (e1, d1) in enumerate(rows):
        for j in range(i + 1, len(rows)):
            e2, d2 = rows[j]
            if typecheck(parse_term(d1)) != typecheck(parse_term(d2)):
                continue
            seen += 1
            distance = brute_distance(expand(parse_expr(e1)), expand(parse_expr(e2)))
            for fmt, left, right in (("diag", d1, d2), ("expr", e1, e2)):
                want = CORPUS_CERTS[fmt].get((i, j), "(top)")
                assert run(capsys, "derive", "--format", fmt, left, right)[:2] == \
                    (EXIT_OK, want + "\n"), (i, j, fmt)
                assert run(capsys, "check", "--format", fmt, want, left, right)[:2] == \
                    (EXIT_OK, f"{distance}\n"), (i, j, fmt)
    assert seen == 26


def nested(k):
    """mu v1.a.mu v2.a. ... mu vk.a.(b.v1 + ... + b.vk)"""
    body = "+".join(f"b.v{i}" for i in range(1, k + 1))
    return "".join(f"mu v{i}.a." for i in range(1, k + 1)) + f"({body})"


@pytest.mark.parametrize("k", [5, 8])
def test_derive_and_check_nested_recursion(capsys, k):
    left, right = nested(k), "mu v1.a.b.v1"
    distance = brute_distance(expand(parse_expr(left)), expand(parse_expr(right)))
    assert 0 < distance < 1
    for fmt, l, r in (("expr", left, right),
                      ("diag", format_term(from_expression(left, 0)),
                       format_term(from_expression(right, 0)))):
        code, cert, _ = run(capsys, "derive", "--format", fmt, l, r)
        assert code == EXIT_OK and cert.startswith("(coupling "), fmt
        assert run(capsys, "check", "--format", fmt, cert, l, r)[:2] == \
            (EXIT_OK, f"{distance}\n"), fmt


def test_compile_output_is_independent_of_the_hash_seed(monkeypatch):
    texts = [nested(k) for k in range(2, 9)] + [
        "a.(b.0+c.v1)+d.mu v2.(a.v2+b.v1+c.0)+a.b.c.0",
        "mu v1.(a.v1+b.mu v2.(a.v1+b.v2+c.v3))"]
    script = ("import sys\nfrom chartdist.cli import main\n"
              "for text in sys.argv[1:]:\n    assert main(['compile', text]) == 0\n")
    # with the transitions of a state kept in a set, seeds 0 and 1 happen
    # to agree on these texts and seeds 2 and 3 do not
    outputs = []
    for seed in ("0", "1", "2", "3"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        done = python(script, *texts)
        assert (done.returncode, done.stderr) == (0, ""), seed
        outputs.append(done.stdout)
    assert len(set(outputs)) == 1


def test_compile_output_doubles_at_most_along_nested_recursion(capsys):
    # counted, not timed: the printed chart of nested(2k) is at most 2.3
    # times that of nested(k), since compile names no state
    sizes = [len(run(capsys, "compile", nested(k))[1].encode()) for k in (4, 8, 16, 32)]
    assert all(b <= 2.3 * a for a, b in zip(sizes, sizes[1:])), sizes


def test_state_budget_below_one_is_a_usage_error(capsys):
    for value in ("0", "-1"):
        code, out, err = run(capsys, "dist", "a.0", "b.0", "--max-states", value)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith(f"error: argument --max-states: must be at least 1, got {value}\n")


def test_a_bug_is_no_usage_error(monkeypatch):
    """Only named errors get exit codes: a ValueError from the core is a
    bug, and main lets it out instead of exiting 1."""
    def broken(self, x, y):
        raise ValueError("broken")
    monkeypatch.setattr(chartdist.bisim.Refinement, "level", broken)
    with pytest.raises(ValueError, match="broken"):
        main(["dist", "a.0", "b.0"])


def test_undecodable_input_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "input.bin"
    path.write_bytes(b"\x81\xff")
    code, out, err = run(capsys, "dist", str(path), "0")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and "decode" in err


def test_variable_past_the_int_digit_limit_is_a_parse_error(capsys):
    limit = sys.get_int_max_str_digits() or pytest.skip("int() reads any number of digits")
    big = "v" + "1" * (limit + 1)
    for argv in (["dist", big, "0"],
                 ["dist", "--format", "chart", f"state p\nstart p\nout p {big}\n", "0"],
                 ["check", f"(coupling 1 ((move (out {big}) (out {big}))))", "0", "0"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, ""), argv[:2]
        assert err.startswith("error: ")


def test_usage_exit_on_bad_flags(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run(capsys)[0] == EXIT_USAGE
    assert run(capsys, "--help")[0] == EXIT_OK


def test_alphabet_restriction(capsys):
    assert run(capsys, "dist", "--alphabet", "ab", "c.0", "0")[0] == EXIT_PARSE
    assert run(capsys, "dist", "--alphabet", "abc", "c.0", "0")[0] == EXIT_OK
    assert run(capsys, "dist", "--alphabet", "a,b,c", "c.0", "0")[0] == EXIT_OK
    # 'v' is reserved and uppercase letters are not actions
    assert run(capsys, "dist", "--alphabet", "av", "a.0", "0")[0] == EXIT_USAGE
    assert run(capsys, "dist", "--alphabet", "aB", "a.0", "0")[0] == EXIT_USAGE
    assert run(capsys, "dist", "--alphabet", "é", "a.0", "0")[0] == EXIT_USAGE


def test_alphabet_restricts_every_format(capsys):
    chart = cycle_text(3)  # letters a and b
    for fmt, text in (("expr", "b.0"), ("diag", "act(b)"), ("chart", chart)):
        for command in ("dist", "bisim", "strat", "derive", "compile", "render"):
            if fmt == "chart" and command in ("derive", "compile"):
                continue
            inputs = [text] if command in ("compile", "render") else [text, text]
            code, out, err = run(capsys, command, "--format", fmt,
                                 "--alphabet", "a", *inputs)
            assert (code, out) == (EXIT_PARSE, ""), (fmt, command)
            assert err.startswith("error: undeclared letter 'b'"), (fmt, command)
            assert run(capsys, command, "--format", fmt, "--alphabet", "a,b",
                       *inputs)[0] == EXIT_OK, (fmt, command)
    assert run(capsys, "check", "--format", "diag", "--alphabet", "a", "(bisim)",
               "act(b)", "act(b)")[0] == EXIT_PARSE


def test_render_expression(capsys):
    code, out, _ = run(capsys, "render", "mu v1.a.v1")
    assert code == EXIT_OK
    assert out.startswith("digraph")
    assert '"mu v1.a.v1"' in out


def test_render_diagram_and_dot_flag(tmp_path, capsys):
    target = tmp_path / "term.dot"
    code, out, _ = run(capsys, "render", "--format", "diag", "-o",
                       str(target), "copy ; act(a) * act(b)")
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith("digraph")
    assert run(capsys, "render", "--format", "diag", "--dot", str(target),
               "act(a)")[0] == EXIT_USAGE


def test_render_chart(tmp_path, capsys):
    chart_text = run(capsys, "compile", "a.v1")[1]
    f = tmp_path / "c.chart"
    f.write_text(chart_text)
    code, out, _ = run(capsys, "render", "--format", "chart", str(f))
    assert code == EXIT_OK
    assert out.startswith("digraph")


def test_axioms_listing(capsys):
    code, out, _ = run(capsys, "axioms")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 14
    assert all(" = " in line for line in out.splitlines())


def test_axioms_check(capsys):
    code, out, _ = run(capsys, "axioms", "--check")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 15
    assert sum(1 for l in lines if l.endswith(": holds")) == 14
    assert lines[-1] == "act-copy: fails as expected"


def test_deep_expressions_answer(capsys):
    loop = "mu v1." + "a." * 1000 + "v1"
    assert run(capsys, "dist", loop, "mu v1.a.v1") == (EXIT_OK, "0 (bisimilar)\n", "")
    chain = "a." * 1200 + "0"
    assert run(capsys, "strat", chain, "0") == (EXIT_OK, "0\n", "")
    assert run(capsys, "dist", chain, "0") == (EXIT_OK, "1 (level 0)\n", "")
    parens = "(" * 500 + "a.0" + ")" * 500
    assert run(capsys, "compile", parens) == (EXIT_OK, run(capsys, "compile", "a.0")[1], "")


def test_too_deep_diagram_exits_5_without_traceback(capsys, monkeypatch):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    # a text that parses but does not type takes the term route, whose walk
    # is _fold; every text is first read by the grammar, _shift_reduce
    patch_everywhere(monkeypatch, chartdist.diagram._fold, too_deep)
    assert run(capsys, "dist", "--format", "diag", "act(a) ; merge", "act(a)") == \
        (EXIT_BUDGET, "", "error: input too deeply nested\n")
    assert run(capsys, "dist", "--format", "diag", "act(a)", "act(a)") == \
        (EXIT_OK, "0 (bisimilar)\n", "")
    patch_everywhere(monkeypatch, chartdist.diagram._shift_reduce, too_deep)
    assert run(capsys, "dist", "--format", "diag", "act(a)", "act(a)") == \
        (EXIT_BUDGET, "", "error: input too deeply nested\n")


def test_long_diagram_chain_answers(capsys):
    seq = ";".join(["act(a)"] * 2000)
    assert run(capsys, "dist", "--format", "diag", seq, seq) == \
        (EXIT_OK, "0 (bisimilar)\n", "")


def test_wide_tensor_and_fan_in_answer(capsys):
    """The shapes once superlinear in a front end: a 4,000-wide tensor,
    2,000 act(a) merged into a 2,000-long epsilon tail or into 2,000
    copy nodes, and 2,000 nested mus of distinct binders."""
    for text in (wide_tensor_text(4000), fan_in_text(2000, 2000), copy_tree_text(2000)):
        assert run(capsys, "dist", "--format", "diag", text, text) == \
            (EXIT_OK, "0 (bisimilar)\n", "")
    assert run(capsys, "dist", nest_text(2000), "mu v1.a.v1") == \
        (EXIT_OK, "0 (bisimilar)\n", "")


def test_diagram_over_budget_exits_5(capsys):
    seq = "act(a) ; act(a) ; act(b)"
    assert run(capsys, "dist", "--format", "diag", "--max-states", "4",
               seq, seq)[:2] == (EXIT_OK, "0 (bisimilar)\n")
    for command in ("dist", "bisim", "strat", "compile", "derive"):
        inputs = [seq] if command == "compile" else [seq, seq]
        code, out, err = run(capsys, command, "--format", "diag",
                             "--max-states", "3", *inputs)
        assert (code, out) == (EXIT_BUDGET, ""), command
        assert err == "error: open chart exceeded 3 states\n", command


def test_diagram_queries_take_no_reference_path(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("reference semantics run by a query")

    for original in (chartdist.regbeh.int_compose, chartdist.regbeh.int_tensor,
                     chartdist.diagram.interpret):
        patch_everywhere(monkeypatch, original, forbidden)
    left = "id(>) * cup ; (merge ; act(a) ; act(a)) * id(<) ; sym(>,<) ; cap"
    right = "id(>) * cup ; (merge ; act(a)) * id(<) ; sym(>,<) ; cap"
    assert run(capsys, "dist", "--format", "diag", left, right)[:2] == \
        (EXIT_OK, "0 (bisimilar)\n")
    assert run(capsys, "strat", "--format", "diag", left, "act(a) ; del")[:2] == \
        (EXIT_OK, "1\n")
    assert run(capsys, "bisim", "--format", "diag", left, right)[0] == EXIT_OK
    code, cert, _ = run(capsys, "derive", "--format", "diag", left, "act(a) ; del")
    assert code == EXIT_OK
    assert run(capsys, "check", "--format", "diag", cert, left, "act(a) ; del")[:2] == \
        (EXIT_OK, "1/2\n")
    assert run(capsys, "compile", "--format", "diag", left)[:2] == \
        (EXIT_OK, "alphabet a\nstate 0\nstate 1\nstate 2\nstart 0\n"
                  "trans 0 a 1\ntrans 1 a 2\ntrans 2 a 1\n")


def test_queries_run_neither_regbeh_nor_expand(capsys, monkeypatch):
    """Diagram queries run neither regbeh nor expand, and expression and
    chart queries do not run regbeh.  act(q) is in no other test and the
    forbidden runs come first, so no cache can stand in for a call."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a reference construction ran in a query")

    def outputs(fmt, pairs, commands):
        # check reads the certificate that derive printed just before it
        seen = []
        for left, right in pairs:
            for command in commands:
                inputs = [left] if command in ("compile", "render") else [left, right]
                if command == "check":
                    inputs.insert(0, seen[-1][1])
                seen.append(run(capsys, command, "--format", fmt, *inputs))
        return seen

    regbeh = [f for f in vars(chartdist.regbeh).values()
              if inspect.isfunction(f) and f.__module__ == "chartdist.regbeh"]
    left = "copy ; (act(q) ; act(a)) * act(q) ; merge"
    loop = "id(>) * cup ; (merge ; act(q) ; copy) * id(<) ; id(>) * sym(>,<) ; id(>) * cap"
    diag = ("diag", [(left, "act(q) ; copy ; act(a) * id(>) ; merge"),
                     (left, "copy ; act(q) * act(q) ; act(a) * id(>) ; merge"),
                     (loop, left)],
            ("dist", "strat", "bisim", "compile", "derive", "check", "render"))
    others = [("expr", [("mu v1.q.(a.v1 + q.0)", "q.a.q.0"),
                        ("mu v1.q.v1", "q.mu v1.q.v1")], ("dist", "derive", "check")),
              ("chart", [(cycle_text(2), cycle_text(3))], ("dist", "derive", "check"))]
    with monkeypatch.context() as patch:
        for original in regbeh + [chartdist.expr.expand]:
            patch_everywhere(patch, original, forbidden)
        forbidden_runs = outputs(*diag)
    with monkeypatch.context() as patch:
        for original in regbeh:
            patch_everywhere(patch, original, forbidden)
        forbidden_runs += [out for case in others for out in outputs(*case)]
    assert len(regbeh) > 20
    assert not any(err for _, _, err in forbidden_runs)
    assert forbidden_runs == [out for case in [diag] + others for out in outputs(*case)]


def test_diagram_queries_type_each_term_in_the_one_walk(capsys, monkeypatch):
    """dist, strat, bisim, derive, check and compile on diagrams type their
    inputs in the one pass that reads their open charts: typecheck runs
    only on the term of a text that the reader refuses, and type errors
    and boundary mismatches are still reported."""
    typed = []
    typecheck = chartdist.diagram.typecheck

    def counting(t):
        typed.append(chartdist.diagram.format_term(t))
        return typecheck(t)

    patch_everywhere(monkeypatch, typecheck, counting)
    left = "copy ; (act(a) ; act(b)) * act(a) ; merge"
    right = "act(a) ; copy ; act(b) * id(>) ; merge"
    for command in ("dist", "strat", "bisim", "derive"):
        assert run(capsys, command, "--format", "diag", left, right)[2] == "", command
    cert = run(capsys, "derive", "--format", "diag", left, right)[1]
    assert run(capsys, "check", "--format", "diag", cert, left, right)[:2] == \
        (EXIT_OK, "1/2\n")
    assert run(capsys, "compile", "--format", "diag", left)[0] == EXIT_OK
    assert run(capsys, "check", "--format", "diag", "(top)", left, "copy") == \
        (EXIT_TYPE, "", "error: the two diagrams have different boundaries\n")
    assert typed == []
    assert run(capsys, "dist", "--format", "diag", "copy ;  copy", right) == \
        (EXIT_TYPE, "", "error: cannot plug '>>' into '>'\n")
    assert typed == ["copy ; copy"]


def test_queries_leave_regbeh_unloaded():
    """No command loads a reference construction: axioms --check decides
    each law on the open charts, and loads neither regbeh nor the
    expression, distance and Fraction modules behind it; a query loads
    no regbeh either."""
    script = ("import sys\nfrom chartdist.cli import main\n"
              "code = main(['axioms', '--check'])\n"
              "assert not {'chartdist.regbeh', 'chartdist.expr', 'chartdist.metric',\n"
              "            'fractions'} & set(sys.modules)\n"
              "assert main(['dist', sys.argv[1], sys.argv[2]]) == 0\n"
              "assert 'chartdist.regbeh' not in sys.modules\n"
              "sys.exit(code)\n")
    done = python(script, FIG_LEFT, FIG_RIGHT)
    axioms = ("snake-right", "snake-left", "copy-assoc", "copy-unit", "copy-comm",
              "merge-assoc", "merge-unit", "merge-comm", "bimonoid", "merge-del",
              "gen-copy", "idempotence", "feedback-unit", "act-merge")
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert done.stdout == "".join(f"{name}: holds\n" for name in axioms) + \
        "act-copy: fails as expected\n1/4 (level 2)\n"


CLI = "import sys\nfrom chartdist.cli import main\nsys.exit(main(sys.argv[1:]))\n"
OPTION_ERRORS = {"--eps": "bad rational 'x'", "--alphabet": "empty alphabet"}


@pytest.mark.parametrize("argv, code", [
    (["derive", "--eps", "x", "a.0", "b.0"], EXIT_USAGE),
    (["dist", "--alphabet", ",", "a.0", "a.0"], EXIT_USAGE),
    (["dist", "a.", "0"], EXIT_PARSE),
    (["dist", "--format", "chart", "state p\nstart q\n", "state p\nstart p\n"], EXIT_PARSE),
    (["dist", "--format", "diag", "act(", "del"], EXIT_PARSE),
    (["check", "(coupling 1/2", "a.0", "b.0"], EXIT_PARSE),
    (["dist", "--format", "diag", "copy ; copy", "act(a)"], EXIT_TYPE),
    (["check", "(bisim)", "a.0", "b.0"], EXIT_REJECTED),
    (["derive", "--eps", "1/4", "a.0", "b.0"], EXIT_REJECTED),
    (["dist", "--max-states", "1", "a.a.0", "a.0"], EXIT_BUDGET),
    (["dist", "--format", "diag", "--max-states", "1", "act(a) ; del", "act(a) ; del"],
     EXIT_BUDGET),
], ids=lambda x: str(x) if isinstance(x, int) else " ".join(x).replace("\n", "|"))
def test_exit_codes_in_a_fresh_interpreter(capsys, argv, code):
    """A failing query exits and reports alike in a fresh interpreter, which
    holds only the modules the query loads, and in this process, which
    holds them all."""
    in_process = run(capsys, *argv)
    assert in_process[0] == code and in_process[1] == ""
    if code == EXIT_USAGE:  # argparse refuses an option value: usage, then the error
        assert in_process[2].endswith(f"error: argument {argv[1]}: {OPTION_ERRORS[argv[1]]}\n")
    else:
        assert in_process[2].startswith("error: ")
    done = python(CLI, *argv)
    assert (done.returncode, done.stdout, done.stderr) == in_process


# What a query may load: (argv, the watched modules it leaves unloaded,
# the watched modules it loads)
_CHART_L, _CHART_R = cycle_text(2), cycle_text(3)
_UNUSED = ("chartdist.derive", "chartdist.regbeh", "dataclasses", "inspect")
_NO_METRIC = ("chartdist.metric", "fractions", "decimal")  # dist prints 2^-level itself
_DIAG = "copy ; (act(a) ; act(b)) * act(a) ; merge"
LOADS = [
    (["dist", "--format", "chart", _CHART_L, _CHART_R],
     _UNUSED + _NO_METRIC + ("chartdist.diagram",), ()),
    (["strat", "--format", "chart", _CHART_L, _CHART_R], _UNUSED + ("chartdist.diagram",), ()),
    (["bisim", "--format", "chart", _CHART_L, _CHART_L], _UNUSED + ("chartdist.diagram",), ()),
    (["dist", FIG_LEFT, FIG_RIGHT], _UNUSED + _NO_METRIC + ("chartdist.diagram",), ()),
    (["dist", "--table", FIG_LEFT, FIG_RIGHT],
     _UNUSED + _NO_METRIC + ("chartdist.diagram",), ()),
    (["compile", FIG_LEFT], _UNUSED + ("chartdist.diagram",), ()),
    (["dist", "--format", "diag", _DIAG, "act(a) ; copy ; act(b) * id(>) ; merge"],
     _UNUSED + _NO_METRIC + ("chartdist.expr",), ("chartdist.diagram",)),
    (["compile", "--format", "diag", _DIAG], _UNUSED + ("chartdist.expr",),
     ("chartdist.diagram",)),
    (["derive", "a.a.0", "a.0"],
     ("chartdist.diagram", "chartdist.metric", "chartdist.regbeh", "dataclasses", "inspect"),
     ("chartdist.derive",)),
    (["check", "(top)", "--format", "chart", _CHART_L, _CHART_R],
     ("chartdist.diagram", "chartdist.metric", "chartdist.regbeh", "dataclasses", "inspect"),
     ("chartdist.derive",)),
]
WATCHED = ("chartdist.bisim", "chartdist.chart", "chartdist.derive", "chartdist.diagram",
           "chartdist.expr", "chartdist.metric", "chartdist.regbeh",
           "dataclasses", "inspect", "typing", "pathlib", "fractions", "decimal")


def loaded_after(script, *argv):
    """The WATCHED modules loaded once script has run in a fresh interpreter
    without the site module, whose .pth files may load some of them."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         script + f"\nprint(sorted(set({WATCHED!r}) & set(sys.modules)))\n", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), argv
    return set(eval(done.stdout.splitlines()[-1]))


def test_importing_the_command_line_loads_no_core_module():
    assert loaded_after("import sys\nimport chartdist.cli\n") == set()


@pytest.mark.parametrize("argv, unloaded, loads", LOADS,
                         ids=[" ".join(a[:{"--format": 3, "--table": 2}.get(a[1], 1)])
                              for a, _, _ in LOADS])
def test_a_query_loads_only_what_it_runs(argv, unloaded, loads):
    script = ("import sys\nfrom chartdist.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n")
    loaded = loaded_after(script, *argv)
    assert not loaded & set(unloaded), argv
    assert set(loads) <= loaded, argv


def test_package_root_is_the_core_modules_public_names():
    root = set(dir(chartdist))
    for module in (chartdist.bisim, chartdist.chart, chartdist.derive,
                   chartdist.diagram, chartdist.expr, chartdist.metric):
        assert set(module.__all__) <= root, module.__name__
    assert not set(chartdist.regbeh.__all__) & root


def test_readme_python_blocks():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def readme_examples():
    """Each "$ chartdist ..." line of a code block in README.md, with the
    lines shown under it."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples, shown, fenced = [], None, False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ chartdist "):
            shown = []
            examples.append((line[len("$ chartdist "):], shown))
        elif shown is not None:
            shown.append(line)
    return examples


def test_readme_examples(tmp_path, monkeypatch, capsys):
    # a trailing "..." line elides the rest of the output, and "| tail -2"
    # keeps its last two lines
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) >= 12
    for command, shown in examples:
        command, _, pipe = command.partition(" | ")
        assert pipe in ("", "tail -2"), command
        out = run(capsys, *shlex.split(command))[1].splitlines()
        if pipe:
            out = out[-2:]
        if shown[-1:] == ["..."]:
            shown = shown[:-1]
            out = out[:len(shown)]
        assert out == shown, command
