"""Chart construction, combinators, and the text format."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from chartdist import (
    Chart, ChartFormatError, Prechart, bisimilar, chart_to_dot, disjoint_union,
    expand, format_chart_text, joint_pair, joint_prechart, open_chart, parse_chart_text,
    parse_expr, quotient, reachable,
)
from chartdist.chart import _read_chart, _relabel, state_key
from chartdist.cli import EXIT_PARSE, main
from helpers import (
    chart_texts, empty_chart, exprs, live_vars, malformed_charts, precharts, prefix_chart,
    rand_chart, rand_expr, rand_forward, rec_chart, ref_parse_chart_text, ref_validate,
    structural_chart, subst_chart, sum_chart, variable_chart,
)


def test_prechart_validates_references():
    with pytest.raises(ValueError):
        Prechart(frozenset({0}), frozenset({(0, "a", 1)}), frozenset())
    with pytest.raises(ValueError):
        Prechart(frozenset({0}), frozenset(), frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Prechart(frozenset({0}), frozenset(), frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Chart(Prechart(frozenset({0}), frozenset(), frozenset()), 1)


def test_letter_v_is_reserved():
    # 'v' opens a variable token in the expression syntax
    with pytest.raises(ValueError):
        Prechart(frozenset({0}), frozenset({(0, "v", 0)}), frozenset())


@st.composite
def prechart_parts(draw):
    """States, transitions and outputs of a small prechart with int and
    string states, with at most one defect: an undeclared source, target
    or output state, a bad letter, or a bad variable."""
    n = draw(st.integers(0, 6))
    names = [str(i) if draw(st.booleans()) else i for i in range(n)]
    trans, outs = set(), set()
    if names:
        state = st.sampled_from(names)
        trans = set(draw(st.frozensets(st.tuples(state, st.sampled_from("ab"), state),
                                       max_size=10)))
        outs = set(draw(st.frozensets(st.tuples(state, st.integers(1, 3)), max_size=5)))
    defects = ["none", "source", "target", "out state"]
    if names:
        defects += ["letter", "variable"]
    defect = draw(st.sampled_from(defects))
    undeclared = draw(st.sampled_from([n, str(n), "x"]))
    q = draw(st.sampled_from(names)) if names else undeclared
    if defect == "source":
        trans.add((undeclared, "a", q))
    elif defect == "target":
        trans.add((q, "b", undeclared))
    elif defect == "out state":
        outs.add((undeclared, 1))
    elif defect == "letter":
        trans.add((q, draw(st.sampled_from(["v", "", "ab", 1, None])), q))
    elif defect == "variable":
        outs.add((q, draw(st.sampled_from([0, -1, "1"]))))
    return frozenset(names), frozenset(trans), frozenset(outs)


@given(prechart_parts())
@settings(max_examples=300, deadline=None)
def test_prechart_validation_matches_item_by_item_reference(parts):
    try:
        ref_validate(*parts)
    except ValueError as e:
        with pytest.raises(ValueError) as info:
            Prechart(*parts)
        assert str(info.value) == str(e)
    else:
        Prechart(*parts)


# The package builds its own precharts unchecked (Prechart._of); these
# tests hold every such prechart to the check of Prechart(...).

def assert_checked(*built):
    for p in built:
        assert Prechart(p.states, p.trans, p.outs) == p


def assert_chart_checked(c: Chart):
    """c passes the check, and then so do the precharts built from it: its
    reachable part's, its relabelling's, its quotient and its tagged union
    with its reachable part."""
    assert_checked(c.prechart)
    part = reachable(c)
    assert_checked(part.prechart, _relabel(c, 0)[0].prechart, quotient(c.prechart)[0],
                   disjoint_union(c, part)[0])


@given(precharts(), st.data())
@settings(max_examples=200, deadline=None)
def test_parsed_charts_pass_the_check(p, data):
    if p.states:
        start = data.draw(st.sampled_from(sorted(p.states, key=state_key)))
        assert_chart_checked(parse_chart_text(format_chart_text(Chart(p, start))))


@given(exprs(), exprs())
@settings(max_examples=200, deadline=None)
def test_expansions_pass_the_check(e, f):
    assert_checked(joint_prechart([e, f])[0])
    assert_chart_checked(expand(e))


@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_open_charts_pass_the_check(seed):
    rng = random.Random(seed)
    m, n = rng.randint(0, 2), rng.randint(0, 2)
    t1, t2 = rand_forward(rng, m, n, 3), rand_forward(rng, m, n, 3)
    o1, o2 = open_chart(t1), open_chart(t2)
    assert_checked(o1.prechart, o2.prechart, joint_pair(t1, t2)[0])
    for o in (o1, o2):
        for entry in o.entries:
            assert_chart_checked(Chart(o.prechart, entry))


def test_beta_moves():
    p = Prechart(frozenset({0, 1}), frozenset({(0, "a", 1)}), frozenset({(0, 2)}))
    assert p.beta()[0] == frozenset({("act", "a", 1), ("out", 2)})
    assert p.beta()[1] == frozenset()


def test_empty_and_variable_charts():
    z = empty_chart()
    assert z.trans == frozenset() and z.outs == frozenset()
    v = variable_chart(3)
    assert v.outs == frozenset({(v.start, 3)})
    assert v.trans == frozenset()


def test_prefix_chart_adds_one_transition():
    c = prefix_chart("a", variable_chart(1))
    moves = c.prechart.beta()[c.start]
    assert len(moves) == 1
    ((kind, letter, target),) = moves
    assert (kind, letter) == ("act", "a")
    assert c.prechart.beta()[target] == frozenset({("out", 1)})


def test_sum_chart_inherits_both_starts():
    left = prefix_chart("a", empty_chart())
    right = variable_chart(2)
    c = sum_chart(left, right)
    moves = c.prechart.beta()[c.start]
    kinds = sorted(m[0] for m in moves)
    assert kinds == ["act", "out"]


def test_subst_chart_matches_substitution():
    # plugging charts for variables agrees with syntactic substitution
    e = parse_expr("a.v1+b.v2")
    g1, g2 = parse_expr("b.0"), parse_expr("mu v1.a.v1")
    plugged = subst_chart(expand(e), [expand(g1), expand(g2)], [1, 2])
    direct = expand(parse_expr("a.b.0+b.mu v1.a.v1"))
    ok, _ = bisimilar(plugged, direct)
    assert ok


def test_rec_chart_unfolds():
    loop = rec_chart(1, prefix_chart("a", variable_chart(1)))
    ok, _ = bisimilar(loop, expand(parse_expr("mu v1.a.v1")))
    assert ok


def test_structural_chart_matches_expand():
    rng = random.Random(2024)
    for _ in range(60):
        e = rand_expr(rng)
        ok, _ = bisimilar(structural_chart(e), expand(e))
        assert ok


def test_reachable_prunes_and_preserves_meaning():
    p = Prechart(
        frozenset({0, 1, 2}),
        frozenset({(0, "a", 1), (2, "b", 2)}),
        frozenset({(2, 1)}),
    )
    c = Chart(p, 0)
    r = reachable(c)
    assert r.states == frozenset({0, 1})
    ok, _ = bisimilar(c, r)
    assert ok


def test_reachable_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        c = reachable(rand_chart(rng))
        assert reachable(c) == c


def test_live_vars():
    c = expand(parse_expr("a.v2+b.0"))
    assert live_vars(c) == frozenset({2})
    assert live_vars(empty_chart()) == frozenset()


def test_disjoint_union_tags_sides():
    c = variable_chart(1)
    union, s1, s2 = disjoint_union(c, c)
    assert s1 != s2
    assert len(union.states) == 2 * len(c.states)


def test_disjoint_union_rejects_states_that_print_alike():
    # 1 and "1" would both become "L:1", and "1" would gain the moves of 1
    p = Prechart(frozenset({1, "1", 2}), frozenset({(1, "a", 2)}), frozenset({(2, 1)}))
    with pytest.raises(ValueError) as info:
        disjoint_union(Chart(p, 2), empty_chart())
    assert str(info.value) == "states 1 and '1' print alike"
    with pytest.raises(ValueError, match="print alike"):
        bisimilar(empty_chart(), Chart(p, "1"))


def test_text_format_round_trip():
    # parsing names states by their text, so equality holds from the
    # second round onward; meaning is preserved from the first
    rng = random.Random(99)
    for _ in range(50):
        c = rand_chart(rng)
        text = format_chart_text(c)
        back = parse_chart_text(text)
        assert format_chart_text(back) == text
        assert parse_chart_text(format_chart_text(back)) == back
        ok, _ = bisimilar(c, back)
        assert ok


def test_text_format_example():
    text = format_chart_text(expand(parse_expr("a.v1")))
    assert "start" in text and "trans" in text and "out" in text
    back = parse_chart_text(text)
    ok, _ = bisimilar(back, expand(parse_expr("a.v1")))
    assert ok


def test_parse_chart_reports_line_numbers():
    bad = "state 0\nstart 0\nfrobnicate 0\n"
    with pytest.raises(ChartFormatError) as info:
        parse_chart_text(bad)
    assert info.value.line == 3


def test_parse_chart_rejects_duplicate_start():
    bad = "state 0\nstate 1\nstart 0\nstart 1\n"
    with pytest.raises(ChartFormatError):
        parse_chart_text(bad)


def test_parse_chart_rejects_unknown_state():
    bad = "state 0\nstart 0\ntrans 0 a 7\n"
    with pytest.raises(ChartFormatError):
        parse_chart_text(bad)


@pytest.mark.parametrize("row", malformed_charts(),
                         ids=lambda row: re.sub(r"\W+", "-", row["message"]).strip("-"))
def test_chart_text_errors_are_pinned(row, capsys):
    """Every ChartFormatError branch: its message and line, and the same
    text through the command line."""
    alphabet = row["alphabet"]
    with pytest.raises(ChartFormatError) as info:
        parse_chart_text(row["text"], alphabet=None if alphabet is None else set(alphabet))
    assert str(info.value) == f"{row['message']} (line {row['line']})"
    assert info.value.line == row["line"]
    flags = [] if alphabet is None else ["--alphabet", alphabet]
    code = main(["dist", "--format", "chart", *flags, row["text"], "state q\nstart q\n"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_PARSE, "")
    assert captured.err == f"error: {row['message']} (line {row['line']})\n"


def test_states_are_declared_before_trans_but_not_before_start():
    with pytest.raises(ChartFormatError) as info:
        parse_chart_text("state q\ntrans q a r\nstate r\nstart q\n")
    assert str(info.value) == "trans references undeclared state (line 2)"
    c = parse_chart_text("start r\nstate r\n")
    assert c.start == "r" and c.states == frozenset({"r"})


@given(chart_texts())
@settings(max_examples=300, deadline=None)
def test_reader_matches_the_reference_parser(case):
    """parse_chart_text, the named view of the numbered reader, gives the
    chart that the reference parser gives, or raises its message at its
    line."""
    text, alphabet = case
    try:
        want = ref_parse_chart_text(text, alphabet)
    except ChartFormatError as e:
        with pytest.raises(ChartFormatError) as info:
            parse_chart_text(text, alphabet)
        assert (str(info.value), info.value.line) == (str(e), e.line)
    else:
        assert parse_chart_text(text, alphabet) == want


def test_reader_numbers_states_in_declaration_order():
    side = _read_chart("state r\nstart q\nstate q\nstate r  # again\ntrans q a r\n"
                       "trans q a r\nout r v2\nstate p\n")
    assert side.names == ["r", "q", "p"]
    assert (side.start, side.succ, side.outs) == \
        (1, [set(), {("a", 0)}, set()], [frozenset({2}), frozenset(), frozenset()])


def test_parse_chart_ignores_comments_and_blanks():
    text = "# two states\nstate 0\n\nstate 1\nstart 0\ntrans 0 a 1\n"
    c = parse_chart_text(text)
    assert c.trans == frozenset({("0", "a", "1")}) or c.trans == frozenset({(0, "a", 1)})


def test_dot_output_quotes_states():
    c = expand(parse_expr("mu v1.a.v1"))
    dot = chart_to_dot(c)
    assert dot.startswith("digraph")
    assert '"mu v1.a.v1"' in dot
