"""End-to-end command line behaviour, including exit codes."""

import random
import shlex
import sys
from pathlib import Path

import pytest

import chartdist.bisim
import chartdist.cli
import chartdist.derive
import chartdist.diagram
import chartdist.regbeh
from chartdist import (
    Chart, axiom_catalog, bisimilar, diagram_distance, disjoint_union, expand,
    format_chart_text, format_term, from_expression, interpret, kleene_solve,
    open_chart_pair, parse_chart_text, parse_expr, parse_term, reachable,
    typecheck,
)
from chartdist.chart import state_key
from chartdist.cli import (
    EXIT_BUDGET, EXIT_OK, EXIT_PARSE, EXIT_REJECTED, EXIT_TYPE, EXIT_USAGE,
    main,
)
from helpers import brute_distance, brute_related_pairs, flip_one_act, rand_forward

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


def run_counting_refinements(monkeypatch, capsys, *argv):
    """Run a command; its (code, out, err) and how many Refinements it built."""
    built = []
    original = chartdist.bisim.Refinement

    class CountedRefinement(original):
        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    with monkeypatch.context() as patch:
        patch_everywhere(patch, original, CountedRefinement)
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


def test_derive_eps_out_of_range(capsys):
    refusal = (EXIT_USAGE, "", "error: bound 7/4 outside [0, 1]\n")
    assert run(capsys, "derive", "--eps", "7/4", "a.a.0", "a.0") == refusal
    assert run(capsys, "derive", "--eps", "1/0", "a.a.0", "a.0")[0] == EXIT_USAGE
    # the bound is checked before the inputs are joined, so a bad bound
    # is reported ahead of a boundary mismatch
    assert run(capsys, "derive", "--format", "diag", "--eps", "7/4",
               "copy", "merge") == refusal


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
    o1, o2 = open_chart_pair(t1, t2)
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
    ("bisim", "expr"), ("bisim", "chart"), ("derive", "expr"), ("check", "expr"),
])
def test_every_query_builds_one_refinement(capsys, monkeypatch, command, fmt):
    for left, right in ((FIG_LEFT, FIG_RIGHT), ("mu v1.a.v1", "mu v1.a.a.v1")):
        want = run(capsys, "dist", left, right)[1]
        if fmt == "chart":
            left, right = (run(capsys, "compile", e)[1] for e in (left, right))
        argv = ["--format", fmt, left, right]
        if command == "check":
            argv.insert(0, run(capsys, "derive", left, right)[1])
        (code, out, _), built = run_counting_refinements(
            monkeypatch, capsys, command, *argv)
        assert built == 1
        assert code == (EXIT_USAGE if out.startswith("not bisimilar") else EXIT_OK)
        if command == "dist":
            assert out == want


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


def cycle_text(n):
    """An n-cycle: a to the next state, b to the one after, v1 at state 0."""
    lines = ["alphabet a b"] + [f"state {q}" for q in range(n)] + ["start 0"]
    for q in range(n):
        lines += [f"trans {q} a {(q + 1) % n}", f"trans {q} b {(q + 2) % n}"]
    return "\n".join(lines + ["out 0 v1"]) + "\n"


def test_dist_table_matches_kleene_on_cycle_pair(capsys):
    left, right = cycle_text(8), cycle_text(9)
    code, out, _ = run(capsys, "dist", "--table", "--format", "chart", left, right)
    assert code == EXIT_OK
    union, _, _ = disjoint_union(parse_chart_text(left), parse_chart_text(right))
    assert out == "1/16 (level 4)\n" + kleene_solve(union).table.to_tsv()


def corpus_rows():
    path = Path(__file__).resolve().parent.parent / "corpus" / "pairs.txt"
    lines = [l.strip() for l in path.read_text().splitlines()]
    return [tuple(l.split("\t")) for l in lines if l and not l.startswith("#")]


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
    code, out, _ = run(capsys, "render", "--format", "diag", "--dot",
                       str(target), "copy ; act(a) * act(b)")
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith("digraph")


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

    patch_everywhere(monkeypatch, chartdist.diagram.open_chart_pair, too_deep)
    assert run(capsys, "dist", "--format", "diag", "act(a)", "act(a)") == \
        (EXIT_BUDGET, "", "error: input too deeply nested\n")


def test_long_diagram_chain_answers(capsys):
    seq = ";".join(["act(a)"] * 2000)
    assert run(capsys, "dist", "--format", "diag", seq, seq) == \
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
