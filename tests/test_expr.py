"""Expression syntax, substitution, and chart expansion."""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import chartdist.expr as expr_module
from chartdist import (
    ZERO, ExpansionBudgetError, ExprSyntaxError, Mu, Prefix, Sum, Var, Zero,
    expand, format_expr, free_vars, joint_prechart, parse_expr, substitute,
)
from chartdist.cli import EXIT_BUDGET, EXIT_OK, main
from helpers import (
    exprs, malformed_expressions, nest_text, python, rand_expr, ref_alpha_normal, ref_expand,
    ref_format, ref_parse, ref_subst,
)


@given(exprs())
@settings(max_examples=300, deadline=None)
def test_format_parse_round_trip(e):
    assert parse_expr(format_expr(e)) == e


def test_parse_examples():
    assert parse_expr("0") == Zero()
    assert parse_expr("v12") == Var(12)
    assert parse_expr("a.v1") == Prefix("a", Var(1))
    assert parse_expr("a.v1+b.v2") == Sum(Prefix("a", Var(1)), Prefix("b", Var(2)))
    assert parse_expr("mu v1.a.v1") == Mu(1, Prefix("a", Var(1)))
    # prefix reaches to the end of the summand, mu to the end of the expression
    assert parse_expr("a.v1+v2") == Sum(Prefix("a", Var(1)), Var(2))
    assert parse_expr("mu v1.a.v1+v1") == Mu(1, Sum(Prefix("a", Var(1)), Var(1)))


def test_format_inserts_needed_parens():
    assert format_expr(Prefix("a", Sum(Var(1), Var(2)))) == "a.(v1+v2)"
    assert format_expr(Sum(Mu(1, Var(1)), Var(2))) == "(mu v1.v1)+v2"
    assert format_expr(Sum(Sum(Var(1), Var(2)), Var(3))) == "v1+v2+v3"


def test_parse_error_positions():
    # superscript two and Arabic-Indic one pass str.isdigit, yet are no
    # digits of a variable index
    for text, pos in [("a.", 2), ("v0", 0), ("(v1", 3), ("v1+", 3),
                      ("v\u00b2", 0), ("v\u0661", 0), ("mu v\u0661.a.v1", 3),
                      ("mu v\u00b2.a.v1", 3), ("a.v1\u0661", 4)]:
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert info.value.position == pos


@pytest.mark.parametrize("row", malformed_expressions(),
                         ids=lambda row: f"{row['message']}: {row['text']}")
def test_expression_errors_are_pinned(row, capsys):
    """Every ExprSyntaxError site of parse_expr: its message and position,
    and the same text through the command line."""
    alphabet = row["alphabet"]
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(row["text"], alphabet=None if alphabet is None else set(alphabet))
    assert str(info.value) == f"{row['message']} (at position {row['position']})"
    assert info.value.position == row["position"]
    flags = [] if alphabet is None else ["--alphabet", alphabet]
    assert main(["dist", *flags, row["text"], "0"]) == row["code"]
    assert capsys.readouterr() == ("", row["stderr"])


# text, then what parse_expr gives without an alphabet (the printed
# expression or the error) and, where it differs, under alphabet {a}
TOKEN_BOUNDARIES = [
    ("mu.0", "expected '.' (at position 1)", "undeclared letter 'm' (at position 0)"),
    ("mumu v1.0", "expected a variable (at position 2)"),
    ("mu", "expected a variable (at position 2)"),
    ("mu v", "malformed variable token (at position 3)"),
    ("mu v0.0", "malformed variable token (at position 3)"),
    ("mu v1 ", "expected '.' (at position 6)"),
    ("mu v1 . v1", "mu v1.v1"),
    ("muv1.v1", "mu v1.v1"),
    ("v 1", "reserved letter 'v' (at position 0)"),
    ("v\u00b2", "reserved letter 'v' (at position 0)"),
    ("mu v\u00b21.0", "malformed variable token (at position 3)"),
    ("a .0", "a.0"),
    ("a.0v1", "trailing input (at position 3)"),
    ("0 0", "trailing input (at position 2)"),
    ("(a.0", "expected ')' (at position 4)"),
    ("(0 0)", "expected ')' (at position 3)"),
    ("a.0 +", "unexpected end of input (at position 5)"),
    ("b.0", "b.0", "undeclared letter 'b' (at position 0)"),
    ("v" + "1" * 5000, "malformed variable token (at position 0)"),
    ("\u2003a.\u20030\u2003", "a.0"),
    ("\x1ca\x1c.0\x1c", "a.0"),
    ("mu\u2003v1\x1c.v1", "mu v1.v1"),
    ("a\u2003b.0", "expected '.' (at position 2)"),
    ("\u2003", "unexpected end of input (at position 1)"),
    ("\x1c", "unexpected end of input (at position 1)"),
]


@pytest.mark.parametrize("row", TOKEN_BOUNDARIES, ids=lambda row: repr(row[0][:12]))
def test_token_boundaries_read_as_pinned(row):
    """Where a token starts and ends: the keyword mu, a variable and the
    blanks between tokens, each text read by parse_expr, with and without
    an alphabet, gives the pinned expression or error; _read raises that
    error, or gives the id that _nameless gives parse_expr's node in one
    table."""
    text, *wants = row
    for alphabet, want in zip((None, {"a"}), wants + wants[-1:]):
        try:
            got = format_expr(parse_expr(text, alphabet))
        except ExprSyntaxError as e:
            got = str(e)
        assert got == want, alphabet
        table = expr_module._Table()
        try:
            node = expr_module._read(text, table, alphabet)
        except ExprSyntaxError as e:
            assert str(e) == want, alphabet
        else:
            assert node == expr_module._nameless(table, parse_expr(text, alphabet)), alphabet


def test_parse_alphabet_restriction():
    parse_expr("c.0")
    with pytest.raises(ExprSyntaxError):
        parse_expr("c.0", alphabet="ab")


def test_free_vars():
    assert free_vars(parse_expr("a.v1+b.v2")) == frozenset({1, 2})
    assert free_vars(parse_expr("mu v1.a.v1")) == frozenset()
    assert free_vars(parse_expr("mu v1.v2")) == frozenset({2})


def test_substitute_simple():
    e = parse_expr("a.v1+v2")
    r = substitute(e, [(1, parse_expr("b.0")), (2, parse_expr("0"))])
    assert r == parse_expr("a.b.0+0")


def test_substitute_is_simultaneous():
    # v1 and v2 swap in one pass, not one after the other
    e = parse_expr("a.v1+b.v2")
    r = substitute(e, [(1, Var(2)), (2, Var(1))])
    assert r == parse_expr("a.v2+b.v1")


def test_substitute_avoids_capture():
    e = Mu(1, Prefix("a", Var(2)))
    r = substitute(e, [(2, Var(1))])
    assert isinstance(r, Mu)
    assert r.binder != 1
    assert free_vars(r) == frozenset({1})
    table = expr_module._Table()  # alpha-equivalent nodes are one nameless node
    assert expr_module._nameless(table, r) == \
        expr_module._nameless(table, Mu(3, Prefix("a", Var(1))))


def test_substitute_skips_bound_occurrences():
    e = parse_expr("mu v1.a.v1")
    assert substitute(e, [(1, Zero())]) == e


@given(exprs(), st.integers(1, 3), exprs())
@settings(max_examples=200, deadline=None)
def test_substitute_free_var_bookkeeping(e, v, g):
    r = substitute(e, [(v, g)])
    expected = free_vars(e) - {v}
    if v in free_vars(e):
        expected |= free_vars(g)
    assert free_vars(r) == expected


def test_expand_names_states_canonically():
    c = expand(parse_expr("mu v7.a.v7"))
    assert c.start == "mu v1.a.v1"
    assert c.states == frozenset({"mu v1.a.v1"})
    assert c.trans == frozenset({("mu v1.a.v1", "a", "mu v1.a.v1")})


def test_expand_deduplicates_alpha_variants():
    # both targets are the same loop up to binder renaming
    c = expand(parse_expr("a.(mu v1.b.v1)+a.(mu v2.b.v2)"))
    assert len(c.states) == 2
    assert "mu v1.b.v1" in c.states


def test_expand_budget():
    with pytest.raises(ExpansionBudgetError):
        expand(parse_expr("a.0"), max_states=1)


def test_expand_var_outputs():
    c = expand(Var(4))
    assert c.outs == frozenset({(c.start, 4)})


@given(exprs())
@settings(max_examples=100, deadline=None)
def test_expand_states_are_normal_forms(e):
    c = expand(e)
    for q in c.states:
        assert ref_format(ref_alpha_normal(ref_parse(q))) == q


# --- differential tests against the reference core in helpers -------------


def assert_same_chart(c, ref):
    assert c.start == ref.start
    assert c.states == ref.states
    assert c.trans == ref.trans
    assert c.outs == ref.outs


@given(exprs(max_var=4))
@settings(max_examples=300, deadline=None)
def test_expand_matches_reference_core(e):
    text = format_expr(e)
    assert ref_format(ref_parse(text)) == text
    assert_same_chart(expand(e), ref_expand(text))


@given(exprs(), st.integers(1, 3), exprs(), st.integers(1, 3), exprs())
@settings(max_examples=300, deadline=None)
def test_substitute_matches_reference_core(e, v, g, w, h):
    bindings = [(v, g)] if v == w else [(v, g), (w, h)]
    ref = ref_subst(ref_parse(format_expr(e)),
                    {u: ref_parse(format_expr(x)) for u, x in bindings})
    assert format_expr(substitute(e, bindings)) == ref_format(ref)


def long_loop(n):
    return "mu v1." + "a." * n + "v1"


def nested(k):
    # mu v1.a.mu v2.a. ... mu vk.a.(b.v1 + ... + b.vk)
    text = "(" + "+".join(f"b.v{i}" for i in range(1, k + 1)) + ")"
    for i in range(k, 0, -1):
        text = f"mu v{i}.a.{text}"
    return text


def corpus_expressions():
    path = Path(__file__).resolve().parent.parent / "corpus" / "pairs.txt"
    lines = [l.strip() for l in path.read_text().splitlines()]
    return [l.split("\t")[0] for l in lines if l and not l.startswith("#")]


# binders directly under binders, shadowing, and free variables that an
# unfolding would capture without renaming
BINDER_CASES = [
    "mu v1.mu v2.a.(v1+v2)",
    "mu v1.mu v2.mu v3.(a.v1+b.v2+c.v3+v4)",
    "mu v1.(mu v2.a.v2+b.v1)",
    "mu v2.mu v1.(a.v1+b.mu v1.c.(v1+v2))",
    "mu v1.a.mu v2.(b.v1+mu v1.c.(v1+v2+v3))",
    "mu v3.(a.mu v1.b.(v1+v3)+v2)+c.mu v2.a.v2",
]


# loops whose unfoldings carry free outputs past their binders, some
# under two binders at once
FREE_OUTPUT_LOOPS = [
    "mu v2.a.(v1+b.v2)",
    "mu v2.mu v3.(v1+a.v2+b.v3)",
    "mu v1.mu v2.a.(v1+b.v2+v3)",
    "mu v3.a.(v1+b.mu v4.(v2+c.v3+a.v4))",
    "mu v1.a.mu v2.(v3+b.v1+c.v2)",
    "a.mu v5.(v2+b.mu v1.(v4+a.v5+c.v1))",
]


def test_expand_matches_reference_core_on_families():
    """expand and joint_prechart name the states, moves and outputs that
    the reference core does, alone and over a pair of inputs."""
    texts = ([long_loop(n) for n in (25, 50, 100, 150)]
             + [nested(k) for k in range(2, 7)] + corpus_expressions()
             + BINDER_CASES + FREE_OUTPUT_LOOPS)
    refs = [ref_expand(text) for text in texts]
    for text, ref in zip(texts, refs):
        assert_same_chart(expand(parse_expr(text)), ref)
        assert joint_prechart([parse_expr(text)]) == (ref.prechart, [ref.start])
    for (t1, r1), (t2, r2) in zip(zip(texts, refs), zip(texts[1:], refs[1:])):
        p, starts = joint_prechart([parse_expr(t1), parse_expr(t2)])
        assert starts == [r1.start, r2.start]
        assert (p.states, p.trans, p.outs) == (r1.states | r2.states, r1.trans | r2.trans,
                                               r1.outs | r2.outs)


@pytest.mark.parametrize("k", [10, 24])
def test_nested_binders_keep_their_budget(k, capsys):
    # family C at k reaches k + 1 states, each counted against the budget
    argv = ["dist", nested(k), "mu v1.a.b.v1", "--max-states"]
    assert main(argv + [str(k)]) == EXIT_BUDGET
    assert main(argv + [str(k + 1)]) == EXIT_OK
    assert capsys.readouterr().out == "1/2 (level 1)\n"


def test_nameless_nodes_grow_quadratically_in_nesting(monkeypatch):
    """One expansion of family C interns O(k^2) nameless nodes: k + 1
    states of O(k) nodes each, though their texts grow exponentially."""
    interned = set()
    original = expr_module._node

    def counted(table, key):
        i = original(table, key)
        interned.add(i)
        return i
    monkeypatch.setattr(expr_module, "_node", counted)
    counts = []
    for k in (8, 16, 32):
        interned.clear()
        table = expr_module._Table()
        joint = expr_module._joint(table, [expr_module._read(nested(k), table)])
        assert len(joint.succ) == k + 1
        counts.append(len(interned))
    assert all(b <= 4.5 * a for a, b in zip(counts, counts[1:])), counts


def test_each_mu_is_unfolded_where_the_walk_meets_it():
    """_moves unfolds a mu once per walk, so a variable of its own that no
    prefix guards adds nothing; the charts match the reference core, which
    unfolds by named substitution."""
    def moves(text):
        table = expr_module._Table()
        trans, outs = expr_module._moves(table, expr_module._read(text, table))
        return list(trans), outs
    assert moves("mu v1.v1") == ([], set())
    assert moves("mu v1.(v1+v2)") == ([], {2})
    for text in ("mu v1.v1", "mu v1.(v1+v2)", "mu v1.mu v2.(v1+v2+a.0)",
                 "mu v1.((mu v1.a.v1)+b.v1)"):
        assert_same_chart(expand(parse_expr(text)), ref_expand(text))


def test_nests_of_distinct_binders_expand_linearly(monkeypatch):
    """Counted, not timed: doubling the binders of nest_text at most
    2.3-folds the _node calls of one _joint against mu v1.a.v1 (closing
    every enclosing mu as the walk descends 4-folds them)."""
    counts = []
    original = expr_module._node

    def counted(table, key):
        counts[-1] += 1
        return original(table, key)
    for n in (125, 250, 500, 1000, 2000):
        table = expr_module._Table()
        roots = [expr_module._read(text, table) for text in (nest_text(n), "mu v1.a.v1")]
        counts.append(0)
        monkeypatch.setattr(expr_module, "_node", counted)
        joint = expr_module._joint(table, roots)
        monkeypatch.setattr(expr_module, "_node", original)
        assert [len(row) for row in joint.succ] == [1] * len(joint.succ)
    assert all(b <= 2.3 * a for a, b in zip(counts, counts[1:])), counts


# --- the one-pass reader ------------------------------------------------


def assert_reads_alike(*texts):
    """_read gives each text, read in turn into one shared table, the id
    that _nameless(parse_expr(text)) gives it, and both tables end alike."""
    read, parsed = expr_module._Table(), expr_module._Table()
    for text in texts:
        assert expr_module._read(text, read) == expr_module._nameless(parsed, parse_expr(text))
    assert read.keys == parsed.keys


def spaced(text):
    """text with blanks wherever the grammar allows them."""
    for token, blanks in (("+", " + "), (".", "\t.\n"), ("(", "( "), (")", " )"),
                          ("mu v", "mu  v")):
        text = text.replace(token, blanks)
    return f" {text}\n"


@given(exprs(), exprs())
@settings(max_examples=200, deadline=None)
def test_reader_matches_parse_then_nameless(e, f):
    assert_reads_alike(format_expr(e), format_expr(f))


def test_reader_matches_parse_then_nameless_on_families():
    rng = random.Random(28)
    texts = ([format_expr(rand_expr(rng, depth=4)) for _ in range(200)] + FREE_OUTPUT_LOOPS
             + [nested(k) for k in range(2, 9)] + BINDER_CASES
             + ["mu v1.mu v1.v1", "mu v1.(v1+mu v1.v1)+v1"])
    for left, right in zip(texts, texts[1:]):
        assert_reads_alike(left, right)
        assert_reads_alike(spaced(left), spaced(right))
        assert_reads_alike(spaced(left), left)


@pytest.mark.parametrize("row", malformed_expressions(),
                         ids=lambda row: f"{row['message']}: {row['text']}")
def test_reader_raises_what_parse_expr_raises(row):
    """On every malformed row both routes raise one error, under the row's
    --alphabet; with no alphabet they also agree, error or node."""
    def outcome(read, alphabet):
        try:
            return read(row["text"], None if alphabet is None else set(alphabet))
        except ExprSyntaxError as e:
            return str(e), e.position

    def parsed(text, alphabet):
        return expr_module._nameless(expr_module._Table(), parse_expr(text, alphabet))

    def read(text, alphabet):
        return expr_module._read(text, expr_module._Table(), alphabet)
    want = (f"{row['message']} (at position {row['position']})", row["position"])
    assert outcome(parsed, row["alphabet"]) == outcome(read, row["alphabet"]) == want
    assert outcome(parsed, None) == outcome(read, None)


def test_reader_depth_does_not_grow_with_input():
    # 5,000 nested parentheses, a 2,000-step loop and 5,000 prefixes, read
    # with a recursion limit of 150
    script = (
        "import sys\n"
        "from chartdist import expr\n"
        "texts = ['(' * 5000 + '0' + ')' * 5000, 'mu v1.' + 'a.' * 2000 + 'v1',\n"
        "         'a.' * 5000 + '0']\n"
        "sys.setrecursionlimit(150)\n"
        "for text in texts:\n"
        "    table = expr._Table()\n"
        "    print(expr._read(text, table), len(table.keys))\n"
    )
    done = python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 1\n2001 2002\n5000 5001\n"


def test_reader_work_grows_linearly_in_loop_length(monkeypatch):
    """Reading long_loop(n) interns a number of ids, counted over every
    call of _node, at most 2.3 times larger per doubling of n."""
    calls = []
    original = expr_module._node

    def counted(table, key):
        calls.append(key)
        return original(table, key)
    monkeypatch.setattr(expr_module, "_node", counted)
    counts = []
    for n in (250, 500, 1000, 2000):
        calls.clear()
        expr_module._read(long_loop(n), expr_module._Table())
        counts.append(len(calls))
    assert all(b <= 2.3 * a for a, b in zip(counts, counts[1:])), counts


# --- deep inputs -------------------------------------------------------


def test_deep_inputs_parse_and_print_back():
    assert parse_expr("(" * 500 + "0" + ")" * 500) is ZERO
    right = "v1+(" * 498 + "v1+v1" + ")" * 498
    e = parse_expr(right)
    assert format_expr(e) == right
    for _ in range(499):
        assert isinstance(e, Sum) and e.left is Var(1)
        e = e.right
    assert e is Var(1)
    chain = "a." * 1200 + "0"
    assert format_expr(parse_expr(chain)) == chain
    assert len(expand(parse_expr(chain)).states) == 1201


def test_expand_depth_does_not_grow_with_input():
    # 2,000 prefixes under a binder, expanded with a recursion limit of 150
    script = (
        "import sys\n"
        "from chartdist import expand, parse_expr\n"
        "text = 'mu v1.' + 'a.' * 2000 + 'v1'\n"
        "sys.setrecursionlimit(150)\n"
        "c = expand(parse_expr(text))\n"
        "print(len(c.states), c.start == text)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2000 True\n"


# --- interning ---------------------------------------------------------


def test_nodes_are_interned():
    text = "mu v1.(a.v1+b.mu v2.(a.v2+v1))+c.v3"
    assert parse_expr(text) is parse_expr(text)
    assert Prefix("a", Var(1)) is Prefix("a", Var(1))
    assert Zero() is ZERO
    e = parse_expr("mu v7.a.mu v9.(b.v7+v9)")
    assert Mu(7, Prefix("a", Mu(9, Sum(Prefix("b", Var(7)), Var(9))))) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e
    with pytest.raises(AttributeError):
        e.body = ZERO
    assert eval(repr(e), {"parse_expr": parse_expr}) is e


def test_bad_fields_raise_value_errors():
    for bad in (0, -1, 1.0, "1", None):
        with pytest.raises(ValueError):
            Var(bad)
        with pytest.raises(ValueError):
            Mu(bad, ZERO)
    for bad in ("v", "ab", "A", "", 1, None, ["a"]):
        with pytest.raises(ValueError):
            Prefix(bad, ZERO)


def test_intern_table_holds_nothing_after_a_query(capsys):
    # every node a query builds is dropped with its last user, so nothing
    # is cached from one query to the next
    gc.collect()
    before = len(expr_module._interned)
    assert main(["dist", nested(4), "mu v1.a.mu v2.a.(b.v2+b.v1+c.0)"]) == 0
    assert main(["derive", long_loop(30), "mu v1.a.a.v1"]) == 0
    capsys.readouterr()
    gc.collect()
    assert len(expr_module._interned) == before
