"""Wire diagrams: syntax, typing, semantics, and the axiom catalogue."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from chartdist import (
    Act, Cap, Chart, Copy, Cup, Del, DiagramSyntaxError, DiagramTypeError,
    ExpansionBudgetError, Gen, Id, Merge, Seq, Sum, Sym, Tensor, Var,
    axiom_catalog, bend, bisimilar, c1_copy_pair, check_axiom, component,
    diagram_distance, expand, format_term, from_expression, interpret, loop1,
    open_chart, parse_expr, parse_term, semantic_equal, stratified_level,
    term_to_dot, typecheck, zip_merge,
)
from helpers import corpus_diagrams, rand_expr, rand_forward, transpose

words = st.text(alphabet=("<", ">"), max_size=3)


def terms():
    leaves = st.one_of(
        st.sampled_from([Copy(), Del(), Merge(), Gen(), Cap(), Cup()]),
        st.builds(Act, st.sampled_from("abc")),
        st.builds(Id, words),
        st.builds(Sym, words, words),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Seq, sub, sub),
            st.builds(Tensor, sub, sub),
        ),
        max_leaves=10,
    )


@given(terms())
@settings(max_examples=300, deadline=None)
def test_format_parse_round_trip(t):
    assert parse_term(format_term(t)) == t


def test_parse_examples():
    assert parse_term("copy ; act(a) * act(b)") == Seq(
        Copy(), Tensor(Act("a"), Act("b")))


def test_operator_precedence():
    t = parse_term("id(>) * del ; merge")
    assert t == Seq(Tensor(Id(">"), Del()), Merge())
    u = parse_term("id(>) * (del ; gen)")
    assert u == Tensor(Id(">"), Seq(Del(), Gen()))


def test_parse_rejects_garbage():
    for text in ["copy ;", "act(V)", "act(vx)", "id(x)", "sym(>)", "(copy", "act(A)",
                 "act(é)"]:
        with pytest.raises(DiagramSyntaxError):
            parse_term(text)
    # the constructor applies the same letter rule
    with pytest.raises(ValueError):
        Act("é")


def test_typecheck_accepts_generators():
    for t, (dom, cod) in [
        (Copy(), (">", ">>")),
        (Del(), (">", "")),
        (Merge(), (">>", ">")),
        (Gen(), ("", ">")),
        (Act("a"), (">", ">")),
        (Cap(), ("<>", "")),
        (Cup(), ("", "><")),
    ]:
        assert typecheck(t) == (dom, cod)


def test_typecheck_id_and_sym():
    assert typecheck(Id("><")) == ("><", "><")
    assert typecheck(Sym(">", "<")) == ("><", "<>")


def test_typecheck_rejects_mismatched_seq():
    with pytest.raises(DiagramTypeError):
        typecheck(Seq(Copy(), Copy()))
    # a nested failure names the position of the offending subterm
    with pytest.raises(DiagramTypeError) as info:
        typecheck(Tensor(Id(">"), Seq(Copy(), Gen())))
    assert "*2" in info.value.path


def test_interpret_generator_payloads():
    assert interpret(Copy()).payload.rows == (Sum(Var(1), Var(2)),)
    assert interpret(Merge()).payload.rows == (Var(1), Var(1))
    assert interpret(Del()).payload.rows[0] == parse_expr("0")
    assert interpret(Gen()).payload.rows == ()
    assert interpret(Act("a")).payload.rows == (parse_expr("a.v1"),)


def test_interpret_objects():
    m = interpret(parse_term("sym(>,<)"))
    assert m.dom_pair == (1, 1) and m.cod_pair == (1, 1)
    c = interpret(Cap())
    assert c.dom_pair == (1, 1) and c.cod_pair == (0, 0)
    u = interpret(Cup())
    assert u.dom_pair == (0, 0) and u.cod_pair == (1, 1)


def test_axioms_all_hold():
    for name, lhs, rhs in axiom_catalog():
        assert check_axiom(lhs, rhs), name


def test_axiom_names_are_unique():
    names = [name for name, _, _ in axiom_catalog()]
    assert len(names) == len(set(names)) == 14


def test_copy_variant_fails():
    lhs, rhs = c1_copy_pair()
    assert not check_axiom(lhs, rhs)


def test_semantic_equal_is_reflexive_and_type_strict():
    rng = random.Random(61)
    for _ in range(20):
        t = rand_forward(rng, rng.randint(0, 2), rng.randint(0, 2), 2)
        assert semantic_equal(t, t)
    with pytest.raises(DiagramTypeError):
        semantic_equal(Copy(), Merge())


def test_diagram_distance_examples():
    d = diagram_distance(Act("a"), Act("b"))
    assert d == 1
    assert diagram_distance(Act("a"), Act("a")) == 0
    assert diagram_distance(
        parse_term("act(a) ; act(a) ; del"),
        parse_term("act(a) ; del"),
    ) == parse_expr_distance("a.a.0", "a.0")


def parse_expr_distance(l, r):
    from chartdist import bd_expressions
    return bd_expressions(parse_expr(l), parse_expr(r))


def test_bend_produces_forward_wires():
    rng = random.Random(62)
    samples = [Cap(), Cup(), Sym(">", "<"), parse_term("cup ; act(a) * id(<)")]
    for _ in range(20):
        samples.append(rand_forward(rng, rng.randint(0, 2), rng.randint(0, 2), 2))
    for t in samples:
        b = bend(t)
        dom, cod = typecheck(b)
        assert "<" not in dom and "<" not in cod


def test_bend_keeps_forward_terms():
    t = parse_term("copy ; act(a) * id(>)")
    assert bend(t) == t


def test_bend_preserves_distances():
    rng = random.Random(63)
    pairs = [
        (Cap(), Cap()),
        (Cup(), Cup()),
        (parse_term("cup ; act(a) * id(<)"), parse_term("cup ; act(b) * id(<)")),
        (parse_term("cup ; act(a) * id(<)"), parse_term("cup")),
    ]
    for t1, t2 in pairs:
        assert diagram_distance(t1, t2) == diagram_distance(bend(t1), bend(t2))


def test_component_matches_payload_rows():
    rng = random.Random(64)
    for _ in range(15):
        n = rng.randint(1, 2)
        t = rand_forward(rng, rng.randint(1, 2), n, 2)
        m = interpret(t)
        for i in range(1, len(m.payload.rows) + 1):
            comp = component(t, i)
            cm = interpret(comp)
            assert len(cm.payload.rows) == 1
            ok, _ = bisimilar(expand(cm.payload.rows[0]), expand(m.payload.rows[i - 1]))
            assert ok


def test_zip_merge_shapes():
    assert zip_merge(0) == Id("")
    assert zip_merge(1) == Merge()
    t = zip_merge(2)
    assert typecheck(t) == (">>>>", ">>")


def test_loop1_shape():
    u = parse_term("merge ; act(a)")
    t = loop1(u)
    assert typecheck(t) == (">", "")
    ok, _ = bisimilar(
        expand(interpret(t).payload.rows[0]),
        expand(parse_expr("mu v1.a.v1")),
    )
    assert ok


def test_from_expression_round_trips_semantics():
    rng = random.Random(65)
    for _ in range(50):
        e = rand_expr(rng)
        n = max(free_vars_width(e), 0)
        t = from_expression(e, n)
        dom, cod = typecheck(t)
        assert dom == ">" and cod == ">" * n
        row = interpret(t).payload.rows[0]
        ok, _ = bisimilar(expand(row), expand(e))
        assert ok


def free_vars_width(e):
    from chartdist import free_vars
    fv = free_vars(e)
    return max(fv) if fv else 0


def test_from_expression_accepts_text():
    t = from_expression("a.v1+b.v1", 1)
    row = interpret(t).payload.rows[0]
    ok, _ = bisimilar(expand(row), expand(parse_expr("a.v1+b.v1")))
    assert ok


def test_from_expression_validates_width():
    with pytest.raises(ValueError):
        from_expression("v3", 2)


def test_term_to_dot():
    dot = term_to_dot(parse_term("copy ; act(a) * act(b)"))
    assert dot.startswith("digraph")
    assert "act(a)" in dot


def _semantics_samples():
    rng = random.Random(66)
    terms = [rand_forward(rng, rng.randint(0, 3), rng.randint(0, 3), 3)
             for _ in range(300)]
    for _, lhs, rhs in axiom_catalog():
        terms += [lhs, rhs, bend(lhs), bend(rhs)]
    # compositions whose shared boundary has several backward wires
    for _ in range(60):
        p, n, q = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        terms.append(Seq(transpose(rand_forward(rng, p, n, 2)),
                         transpose(rand_forward(rng, q, p, 2))))
    return terms + corpus_diagrams()


def test_open_chart_entries_match_interpret_rows():
    for t in _semantics_samples():
        o = open_chart(t)
        rows = interpret(t).payload.rows
        assert len(o.entries) == len(rows), format_term(t)
        for e, row in zip(o.entries, rows):
            c = Chart(o.prechart, e)
            assert stratified_level(c, expand(row)) == math.inf, format_term(t)


def test_open_chart_numbers_states_breadth_first():
    o = open_chart(parse_term("act(b) * (act(a) ; act(a))"))
    assert o.entries == (0, 1)
    assert o.prechart.trans == {(0, "b", 2), (1, "a", 3), (3, "a", 4)}
    assert o.prechart.outs == {(2, 1), (4, 2)}
    # an unguarded loop adds nothing: the fed-back merge and copy only
    # pass their input through
    o = open_chart(loop1(parse_term("merge ; copy")))
    assert o.entries == (0,)
    assert (o.prechart.trans, o.prechart.outs) == (set(), {(0, 1)})


def test_open_chart_budget():
    t = parse_term("act(a) ; act(a) ; act(b)")
    assert len(open_chart(t, max_states=4).prechart.states) == 4
    with pytest.raises(ExpansionBudgetError):
        open_chart(t, max_states=3)


def test_long_and_deep_terms_need_no_recursion():
    chain = " ; ".join(["act(a)"] * 5000)
    t = parse_term(chain)
    assert typecheck(t) == (">", ">")
    assert format_term(t) == chain
    assert term_to_dot(t).count("->") == 2 * 4999
    assert len(open_chart(t).prechart.states) == 5001
    wide = " * ".join(["act(a)"] * 3000)
    assert typecheck(parse_term(wide)) == (">" * 3000, ">" * 3000)
    nested = "(" * 3000 + "act(a)" + ")" * 3000
    assert format_term(parse_term(nested)) == "act(a)"
    with pytest.raises(DiagramTypeError) as info:
        typecheck(parse_term("copy ; copy ; " + chain))
    assert info.value.path == (";1",) * 5000


def test_long_terms_compare_hash_and_print_without_recursion():
    chain = ";".join(["act(a)"] * 2000)
    t, u = parse_term(chain), parse_term(chain)
    assert t == u and hash(t) == hash(u)
    assert t != parse_term(chain + ";act(b)")
    assert repr(t) == f"parse_term({format_term(t)!r})"
    assert eval(repr(t)) == t
    # equality is structural: bracketing and term kinds count
    a, b, c = Act("a"), Act("b"), Act("c")
    assert Seq(Seq(a, b), c) != Seq(a, Seq(b, c))
    assert Seq(a, b) != Tensor(a, b)
    assert Seq(a, b) == Seq(Act("a"), Act("b"))
    assert len({Seq(a, b), Seq(Act("a"), Act("b")), Tensor(a, b)}) == 2


def test_parse_errors_name_the_offset():
    for text, message in [
        ("copy ;", "expected a term (at offset 6)"),
        ("(copy", "expected ')' (at offset 5)"),
        ("copy)", "trailing input (at offset 4)"),
        ("act(V)", "invalid action letter 'V' (at offset 5)"),
        ("id(x)", "expected ')' (at offset 3)"),
        ("sym(>)", "expected ',' (at offset 5)"),
        ("frob", "unknown term 'frob' (at offset 4)"),
    ]:
        with pytest.raises(DiagramSyntaxError) as info:
            parse_term(text)
        assert str(info.value) == message, text
