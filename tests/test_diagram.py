"""Wire diagrams: syntax, typing, semantics, and the axiom catalogue."""

import contextlib
import io
import itertools
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chartdist import (
    Act, Cap, Chart, Copy, Cup, Del, DiagramSyntaxError, DiagramTypeError,
    ExpansionBudgetError, Gen, Id, Merge, Seq, Sum, Sym, Tensor, Var,
    axiom_catalog, bend, bisimilar, c1_copy_pair, component,
    diagram_distance, expand, format_expr, format_term, from_expression, interpret, joint_pair,
    loop1, open_chart, parse_expr, parse_term, semantic_equal,
    stratified_level, term_to_dot, typecheck, zip_merge,
)
import chartdist.diagram
from chartdist.cli import EXIT_OK, EXIT_PARSE, EXIT_TYPE, main
from chartdist.chart import MAX_STATES
from chartdist.diagram import _close, _read_open
from helpers import (
    brute_close, copy_tree_text, corpus_diagrams, exprs, fan_in_text, malformed_diagrams,
    mistype_one_seq, rand_expr, rand_forward, ref_from_expression, ref_open_chart,
    ref_parse_term, ref_zip_merge, transpose, wide_tensor_text,
)

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


# letters, digits, blanks and punctuation of every token class, and
# characters that are letters, digits or neither only outside ASCII
EDITS = "é²١_09 \t\n<>();*,avV"


def parsed(parse, text, alphabet):
    """The term parse reads from text, or the text of its error."""
    try:
        return parse(text, alphabet=alphabet)
    except DiagramSyntaxError as e:
        return str(e)


@given(terms(), st.data())
@settings(max_examples=400, deadline=None)
def test_parse_term_matches_the_reference_parser_on_edited_text(t, data):
    text = format_term(t)
    i = data.draw(st.integers(0, len(text)))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    if edit == "delete":
        text = text[:i] + text[i + 1:]
    else:
        ch = data.draw(st.sampled_from(EDITS))
        text = text[:i] + ch + text[i + (edit == "replace"):]
    alphabet = data.draw(st.sampled_from([None, {"a", "b"}]))
    assert parsed(parse_term, text, alphabet) == parsed(ref_parse_term, text, alphabet)


def read_as_the_oracles(text, alphabet=None):
    """Assert that _read_open refuses text exactly when ref_parse_term or
    typecheck raises, and otherwise reads typecheck's boundary words and
    the open chart that ref_open_chart builds; return what it reads."""
    parts = _read_open(text, alphabet)
    try:
        t = ref_parse_term(text, alphabet=alphabet)
        words = typecheck(t)
    except (DiagramSyntaxError, DiagramTypeError):
        assert parts is None, text
        return None
    assert parts is not None and parts[0] == words, text
    assert open_chart(parts) == ref_open_chart(t), text
    return parts


def parenthesised(t):
    """t with every ';' and '*' in parentheses, as the benchmark prints terms."""
    parts = []
    todo = [t]  # a term or a string
    while todo:
        node = todo.pop()
        if type(node) is str:
            parts.append(node)
        elif type(node) is Seq:
            todo += [")", node.second, " ; ", node.first, "("]
        elif type(node) is Tensor:
            todo += [")", node.right, " * ", node.left, "("]
        else:
            parts.append(format_term(node))
    return "".join(parts)


def cli(argv):
    """(exit code, stdout, stderr) of one call of the command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(terms())
@settings(max_examples=300, deadline=None)
def test_read_open_matches_the_term_walk(t):
    """Well- and ill-typed terms, printed with the fewest parentheses and
    with all of them; open_chart of a term reads its printed text."""
    for text in (format_term(t), parenthesised(t)):
        if read_as_the_oracles(text) is not None:
            assert open_chart(parse_term(text)) == ref_open_chart(parse_term(text)), text


@given(st.integers(0, 2 ** 32), st.integers(3, 4), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_read_open_matches_the_term_walk_on_forward_terms(seed, depth, m, n):
    t = rand_forward(random.Random(seed), m, n, depth)
    for text in (format_term(t), parenthesised(t)):
        assert read_as_the_oracles(text) is not None, text


@given(terms(), st.data())
@settings(max_examples=150, deadline=None)
def test_read_open_fails_as_the_term_route_on_edited_text(t, data):
    """_read_open reads exactly the texts that parse and type, and dist
    fails on them as parsing and typing the two terms fails."""
    original = format_term(t)
    i = data.draw(st.integers(0, len(original)))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    if edit == "delete":
        text = original[:i] + original[i + 1:]
    else:
        ch = data.draw(st.sampled_from(EDITS))
        text = original[:i] + ch + original[i + (edit == "replace"):]
    alphabet = data.draw(st.sampled_from([None, {"a", "b"}]))
    read_as_the_oracles(text, alphabet)
    flags = () if alphabet is None else ("--alphabet", "ab")
    code, _, err = cli(["dist", "--format", "diag", *flags, text, original])
    failure = first_diagram_error({"left": text, "right": original, "alphabet": alphabet})
    if failure is None:
        assert (code, err) == (EXIT_OK, ""), text
    else:
        assert (code, err) == (failure[0], f"error: {failure[1]}\n"), text


def test_read_open_spellings_and_depth():
    """Blanks inside leaves, one leaf spelled two ways, an --alphabet met
    at a later leaf, and inputs too long or deep for a recursive reader."""
    for text in ["act( a ) ; act(a)", "sym( > , < ) * id( ) ; sym(<,>)", "id (\t>\n)",
                 " ; ".join(["act(a)"] * 5000), " * ".join(["act(a)"] * 3000),
                 "(" * 5000 + "act(a) ; act(b)" + ")" * 5000]:
        assert read_as_the_oracles(text) is not None, text
    assert _read_open("act(a) ; act(b)", {"a"}) is None
    assert read_as_the_oracles("act(a) ; act(a)", {"a"}) is not None
    deep = "(" * 5000 + "act(a)" + ")" * 5000
    assert cli(["dist", "--format", "diag", deep, "act(a)"]) == (0, "0 (bisimilar)\n", "")


def test_ill_typed_left_beside_a_syntax_error_reports_the_syntax_error():
    """Parsing both inputs comes before typing either."""
    for command in ("dist", "derive"):
        assert cli([command, "--format", "diag", "act(a) ; merge", "copy ;"]) == \
            (EXIT_PARSE, "", "error: expected a term (at offset 6)\n")


def test_leaf_spellings_share_their_parts_and_the_table_stays_fixed():
    """A canonical leaf and another spelling of it read alike; leaves of
    other spellings, or of a refused letter, take the per-call path."""
    table = len(chartdist.diagram._LEAF_LAYOUTS)
    for canonical, other in [("act(a)", "act( a )"), ("id(>)", "id (\t>\n)"),
                             ("sym(>,<)", "sym( > , < )"), ("id()", "id( )"),
                             ("copy ; id(>) * act(b)", "copy ; id( > ) * act(b )")]:
        assert _read_open(canonical) == _read_open(other) == read_as_the_oracles(canonical), \
            canonical
    for word in itertools.islice(itertools.product("<>", repeat=10), 1000):
        text = f"id({''.join(word)})"
        assert read_as_the_oracles(text) is not None, text
    assert len(chartdist.diagram._LEAF_LAYOUTS) == table
    assert _read_open("act(a) ; act(b)", {"a"}) is None
    assert _read_open("act(b) ; act(a)", {"a"}) is None
    assert _read_open("act(é)") is None and read_as_the_oracles("id(>>>)") is not None


def close_both(t, max_states=MAX_STATES, offset=0):
    """_close and brute_close of the open chart of t, or the text of the
    budget error each raises; None when t does not type."""
    read = _read_open(format_term(t))
    if read is None:
        return None
    _, parts = read
    answers = []
    for close in (_close, brute_close):
        try:
            answers.append(close(*parts, max_states, offset))
        except ExpansionBudgetError as e:
            answers.append(str(e))
    return answers


@given(terms(), st.integers(1, 12), st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_close_matches_the_per_state_walk(t, max_states, offset):
    """cap and cup in terms() feed wires back, so epsilon cycles occur."""
    answers = close_both(t, max_states, offset)
    assert answers is None or answers[0] == answers[1], format_term(t)


@given(st.integers(0, 2 ** 32), st.integers(2, 4), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_close_matches_the_per_state_walk_on_forward_terms(seed, depth, m, n):
    """loop1 feeds the last output back through cup and cap, and the
    feedback of merge alone closes a cycle of aliases."""
    rng = random.Random(seed)
    for t in (rand_forward(rng, m, n, depth), loop1(rand_forward(rng, m + 1, n + 1, depth)),
              loop1(Seq(rand_forward(rng, m + 1, n + 2, depth), Tensor(Id(">" * n), Merge()))),
              loop1(Seq(Tensor(Id(">" * m), Merge()), rand_forward(rng, m + 1, n + 1, depth)))):
        closed, brute = close_both(t)
        assert closed == brute, format_term(t)


def test_close_resolves_cycles_of_aliases():
    """Feedback through merge alone is a cycle of aliases, which has no
    behaviour; through copy it is an epsilon cycle with a node that is
    no alias; through act(a) it is a loop of a-moves."""
    for t, answer in [(loop1(Merge()), ([[]], [frozenset()], (0,))),
                      (loop1(Seq(Merge(), Copy())), ([[]], [frozenset({1})], (0,))),
                      (loop1(Seq(Merge(), Act("a"))),
                       ([[("a", 1)]] * 2, [frozenset()] * 2, (0,)))]:
        assert close_both(t) == [answer, answer], format_term(t)


class CountingList(list):
    """A list that counts its subscripts, so that a test can count the
    nodes a walk over it visits."""

    count = 0

    def __getitem__(self, i):
        self.count += 1
        return super().__getitem__(i)


def test_wide_tensors_and_fan_in_grow_linearly():
    """Counted, not timed: doubling the factors of a wide tensor, read as
    text or opened as a term, at most 2.3-folds the ports that '*' copies
    or joins (copying both sides at every '*' 4-folds them), and doubling
    the fan-in and its epsilon tail, or the fan-in and its chain of copy
    nodes, at most 2.3-folds the node visits of _close (walking each
    state's closure from scratch 4-folds them)."""
    ports = []  # per width: the ports joined reading its text, then opening its term

    def counting(join):
        def counted(*args):  # factors, or two factors and the '*' node
            factors = args[0] if len(args) == 1 else args[:2]
            ports[-1][-1] += sum(len(group) for f in factors for group in f[2:])
            return join(*args)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        for name, join in list(vars(chartdist.diagram).items()):
            if name.startswith("_beside"):  # every function that joins the ports of a '*'
                patch.setattr(chartdist.diagram, name, counting(join))
        for n in (250, 500, 1000, 2000, 4000):
            ports.append([0])
            assert _read_open(wide_tensor_text(n))[0] == (">" * n, ">" * n)
            ports[-1].append(0)
            assert len(open_chart(parse_term(wide_tensor_text(n))).entries) == n
    visits = []
    for shape in (lambda n: fan_in_text(n, n), copy_tree_text):
        visits.append([])
        for n in (125, 250, 500, 1000, 2000):
            _, (moves, eps, entries, outputs) = _read_open(shape(n))
            counted = CountingList(moves), CountingList(eps)
            succ, _, _ = _close(*counted, entries, outputs, MAX_STATES)
            visits[-1].append(counted[0].count + counted[1].count)
            assert len(succ) == 2 * n + 1  # n entries, n a-targets and the b-target
            if n == 125:
                assert brute_close(moves, eps, entries, outputs, MAX_STATES)[0] == succ
    for counts in (*zip(*ports), *visits):
        assert all(b <= 2.3 * a for a, b in zip(counts, counts[1:])), counts


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
        assert semantic_equal(lhs, rhs), name


def test_axiom_names_are_unique():
    names = [name for name, _, _ in axiom_catalog()]
    assert len(names) == len(set(names)) == 14


def test_copy_variant_fails():
    lhs, rhs = c1_copy_pair()
    assert not semantic_equal(lhs, rhs)


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
    from chartdist import bd_stratified
    return bd_stratified(parse_expr(l), parse_expr(r))


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


def test_from_expression_matches_its_recursive_definition():
    """from_expression against the reference core's compiler, which
    alpha-normalises and moves each binder by named substitution: on the
    corpus and on random expressions, each given as an Expr and as text,
    at its least width and above it, and on exprs() cases, whose binders
    may shadow, bind nothing or go unguarded."""
    rng = random.Random(66)
    path = Path(__file__).resolve().parent.parent / "corpus" / "pairs.txt"
    cases = [parse_expr(l.split("\t")[0]) for l in path.read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    cases += [rand_expr(rng, maxvar=rng.randint(0, 3), depth=rng.randint(0, 5))
              for _ in range(200)]
    for e in cases:
        n = free_vars_width(e)
        for width in (n, n + 2):
            want = ref_from_expression(e, width)
            assert from_expression(e, width) == want, e
            assert from_expression(format_expr(e), width) == want, e
    for n in range(7):
        assert zip_merge(n) == ref_zip_merge(n)

    @given(exprs(max_var=4), st.integers(0, 3), st.booleans())
    @settings(max_examples=300, deadline=None)
    def agrees(e, above, as_text):
        width = free_vars_width(e) + above
        got = from_expression(format_expr(e) if as_text else e, width)
        assert got == ref_from_expression(e, width), (format_expr(e), width)
    agrees()


def test_deep_expressions_compile_without_recursion():
    loop = parse_expr("mu v1." + "a." * 1500 + "v1")
    t = from_expression(loop)
    assert typecheck(t) == (">", "")
    o = open_chart(t)
    assert bisimilar(Chart(o.prechart, o.entries[0]), expand(loop))[0]
    assert typecheck(from_expression("a." * 1200 + "0")) == (">", "")
    assert typecheck(zip_merge(1200)) == (">" * 2400, ">" * 1200)


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
    # every leaf: the constant generators, act, and id and sym on short words
    short = ["".join(w) for n in range(4) for w in itertools.product("><", repeat=n)]
    terms += [Copy(), Del(), Merge(), Gen(), Cap(), Cup(), Act("a")]
    terms += [Id(w) for w in short]
    terms += [Sym(u, w) for u in short if len(u) <= 2 for w in short if len(w) <= 2]
    return terms + corpus_diagrams()


def test_open_chart_entries_match_interpret_rows():
    for t in _semantics_samples():
        o = open_chart(t)
        rows = interpret(t).payload.rows
        assert len(o.entries) == len(rows), format_term(t)
        for e, row in zip(o.entries, rows):
            c = Chart(o.prechart, e)
            assert stratified_level(c, expand(row)) == math.inf, format_term(t)


def test_open_chart_matches_the_reference_leaf_construction():
    # the state numbers are what bisim witnesses, derive certificates and
    # compile print, so they must be exactly the reference's
    rng = random.Random(67)
    terms = _semantics_samples() + [from_expression(rand_expr(rng)) for _ in range(300)]
    for t in terms:
        assert open_chart(t) == ref_open_chart(t), format_term(t)


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
        ("act(²)", "invalid action letter '²' (at offset 5)"),
        ("act(_)", "expected a term (at offset 4)"),
        ("id(x)", "expected ')' (at offset 3)"),
        ("sym(>)", "expected ',' (at offset 5)"),
        ("frob", "unknown term 'frob' (at offset 4)"),
    ]:
        with pytest.raises(DiagramSyntaxError) as info:
            parse_term(text)
        assert str(info.value) == message, text


def first_diagram_error(row):
    """The exit code and message of the first failure among parsing each
    side, typing each side and comparing their boundary words; None when
    there is none."""
    alphabet = None if row["alphabet"] is None else set(row["alphabet"])
    try:
        terms = [parse_term(row[side], alphabet=alphabet) for side in ("left", "right")]
        if typecheck(terms[0]) != typecheck(terms[1]):
            return EXIT_TYPE, "the two diagrams have different boundaries"
    except DiagramSyntaxError as e:
        return EXIT_PARSE, str(e)
    except DiagramTypeError as e:
        return EXIT_TYPE, str(e)
    return None


def raised(query, *args):
    """The message and path of the DiagramTypeError that query(*args)
    raises, or None when it returns."""
    try:
        query(*args)
    except DiagramTypeError as e:
        return str(e), e.path
    return None


@pytest.mark.parametrize("row", malformed_diagrams(),
                         ids=lambda row: re.sub(r"\W+", "-", row["stderr"]).strip("-"))
def test_diagram_errors_are_pinned(row, capsys):
    """Every DiagramSyntaxError message and the order in which the type
    errors of two inputs are reported: by parse_term and typecheck, by
    the command line, whose reader refuses exactly the texts that fail,
    and by open_chart, joint_pair and stratified_level on the terms."""
    code, message = first_diagram_error(row)
    assert (code, f"error: {message}\n") == (row["code"], row["stderr"])
    flags = [] if row["alphabet"] is None else ["--alphabet", row["alphabet"]]
    if row["max_states"] is not None:
        flags += ["--max-states", str(row["max_states"])]
    assert main(["dist", "--format", "diag", *flags, row["left"], row["right"]]) == code
    assert capsys.readouterr() == ("", row["stderr"])
    alphabet = None if row["alphabet"] is None else set(row["alphabet"])
    for side in ("left", "right"):
        read_as_the_oracles(row[side], alphabet)
    if code == EXIT_PARSE:
        return
    terms = [parse_term(row[side], alphabet=alphabet) for side in ("left", "right")]
    # each side opens as it types, and the pair fails on the first failure
    typed = [raised(typecheck, t) for t in terms]
    assert [raised(open_chart, t) for t in terms] == typed
    first = next(filter(None, typed), (message, ()))
    assert first[0] == message
    max_states = row["max_states"] or MAX_STATES
    for query in (joint_pair, stratified_level):
        assert raised(query, *terms, max_states) == first, query.__name__


def test_ill_typed_terms_fail_as_typecheck_fails(capsys):
    """open_chart, joint_pair on either side, and every query of the
    command line that types a term report the failure that typecheck
    reports: the same message and path."""
    rng = random.Random(68)
    tried = 0
    while tried < 40:
        good = rand_forward(rng, rng.randint(0, 2), rng.randint(0, 2), 3)
        bad = mistype_one_seq(rng, good)
        if bad is None:
            continue
        tried += 1
        with pytest.raises(DiagramTypeError) as info:
            typecheck(bad)
        expected = (str(info.value), info.value.path)
        for query in (lambda: open_chart(bad), lambda: joint_pair(bad, good),
                      lambda: joint_pair(good, bad)):
            with pytest.raises(DiagramTypeError) as info:
                query()
            assert (str(info.value), info.value.path) == expected, format_term(bad)
        texts = format_term(bad), format_term(good)
        for argv in (["compile", texts[0]], ["dist", *texts], ["dist", *texts[::-1]],
                     ["derive", *texts], ["derive", *texts[::-1]],
                     ["check", "(top)", *texts], ["check", "(top)", *texts[::-1]]):
            argv[1:1] = ["--format", "diag"]
            assert main(argv) == EXIT_TYPE, argv
            assert capsys.readouterr() == ("", f"error: {expected[0]}\n"), argv
