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
    alpha_equivalent, alpha_normal, expand, format_expr, free_vars, joint_prechart,
    parse_expr, step, substitute,
)
from chartdist.cli import EXIT_BUDGET, EXIT_OK, main
from helpers import (
    exprs, malformed_expressions, ref_alpha_normal, ref_expand, ref_format, ref_parse,
    ref_step, ref_subst,
)


@given(exprs())
@settings(max_examples=300, deadline=None)
def test_format_parse_round_trip(e):
    assert parse_expr(format_expr(e)) == e


@given(exprs())
@settings(max_examples=200, deadline=None)
def test_alpha_normal_is_canonical(e):
    n = alpha_normal(e)
    assert alpha_equivalent(e, n)
    assert alpha_normal(n) == n
    assert free_vars(n) == free_vars(e)


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
    assert alpha_equivalent(r, Mu(3, Prefix("a", Var(1))))


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


def test_step_prefix_and_sum():
    res = step(parse_expr("a.v1+v2"))
    assert res.transitions == frozenset({("a", Var(1))})
    assert res.outputs == frozenset({2})


def test_step_unfolds_mu():
    e = parse_expr("mu v1.a.v1")
    res = step(e)
    ((a, target),) = res.transitions
    assert a == "a"
    assert alpha_equivalent(target, e)
    assert res.outputs == frozenset()


def test_step_mu_drops_binder_output():
    # the bound variable is not observable
    res = step(parse_expr("mu v1.v1+v2"))
    assert res.outputs == frozenset({2})
    assert res.transitions == frozenset()


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
        assert format_expr(alpha_normal(parse_expr(q))) == q


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
    res = step(e)
    ref_trans, ref_outs = ref_step(ref_parse(text))
    assert {(a, format_expr(t)) for a, t in res.transitions} == \
        {(a, ref_format(t)) for a, t in ref_trans}
    assert res.outputs == ref_outs


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


@given(exprs(max_var=4))
@settings(max_examples=300, deadline=None)
def test_alpha_normal_matches_reference_core(e):
    text = format_expr(e)
    assert format_expr(alpha_normal(e)) == ref_format(ref_alpha_normal(ref_parse(text)))


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
        joint = expr_module._joint([parse_expr(nested(k))])
        assert len(joint.succ) == k + 1
        counts.append(len(interned))
    assert all(b <= 4.5 * a for a, b in zip(counts, counts[1:])), counts


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
    n = alpha_normal(e)
    assert n is not e
    assert alpha_normal(n) is n
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
