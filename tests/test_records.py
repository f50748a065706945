"""The immutable values of the package: Prechart, Chart, the diagram
terms, OpenChart, KleeneResult, the certificate nodes, the regbeh
morphisms and the expressions.

Their repr, ==, hash, immutability and validation errors are public.
The expected values below are those the records had as dataclasses,
written out, but for the certificate nodes and the diagram terms, leaf
or composite, whose repr is their text read back: parse_cert('...') and
parse_term('...').  A diagram term hashes as its text, and every value
but a KleeneResult is its own copy; an expression copies with no
parse."""

import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from chartdist import expr
from chartdist.chart import Chart, Prechart
from chartdist.derive import (
    CBisim, CCoupling, CDecomp, CTop, CWeaken, format_cert, parse_cert, synthesize,
)
from chartdist.diagram import (
    Act, Cap, Copy, Cup, Del, Gen, Id, Merge, OpenChart, Seq, Sym, Tensor, axiom_catalog,
    format_term, open_chart, parse_term, typecheck,
)
from chartdist.expr import ZERO, Mu, Prefix, Sum, Var, parse_expr
from chartdist.metric import KleeneResult, kleene_solve
from chartdist.regbeh import IntMorphism, RbMorphism, RbTypeError, int_id, rb_id, rb_sym
from helpers import cert_dataclass, corpus_diagrams, corpus_rows, rand_forward

P = Prechart(frozenset({0, 1}), frozenset({(0, "a", 1)}), frozenset({(1, 1)}))
P_TEXT = ("Prechart(states=frozenset({0, 1}), trans=frozenset({(0, 'a', 1)}), "
          "outs=frozenset({(1, 1)}))")
HALF = Fraction(1, 2)


def pairs():
    """The move pairs of a coupling, built anew at each call."""
    return ((("act", "a", "L:0"), ("act", "a", "R:0"), CTop()), (("out", 1), ("out", 1), None))


def records():
    """(record, an equal record built apart, an unequal record of the same
    class, the record's repr, a field name)."""
    other = Prechart(frozenset({0}), frozenset(), frozenset())
    return [
        (P, Prechart(states=frozenset({1, 0}), trans=frozenset({(0, "a", 1)}),
                     outs=frozenset({(1, 1)})),
         other, P_TEXT, "states"),
        (Chart(P, 0), Chart(prechart=P, start=0), Chart(P, 1),
         f"Chart(prechart={P_TEXT}, start=0)", "start"),
        (Act("a"), Act(letter="a"), Act("b"), "parse_term('act(a)')", "letter"),
        (Id("><"), Id(word="><"), Id(">"), "parse_term('id(><)')", "word"),
        (Sym(">", "<"), Sym(left=">", right="<"), Sym("<", ">"),
         "parse_term('sym(>,<)')", "left"),
        (Seq(Act("a"), Del()), parse_term("act(a) ; del"), Seq(Act("b"), Del()),
         "parse_term('act(a) ; del')", "first"),
        (Tensor(Id(">"), Copy()), parse_term("id(>) * copy"), Tensor(Copy(), Id(">")),
         "parse_term('id(>) * copy')", "right"),
        (open_chart(parse_term("act(a) ; del")),
         OpenChart(Prechart(frozenset({0, 1}), frozenset({(0, "a", 1)}), frozenset()),
                   (0,)),
         OpenChart(Prechart(frozenset({0, 1}), frozenset({(0, "a", 1)}), frozenset()),
                   (1,)),
         "OpenChart(prechart=Prechart(states=frozenset({0, 1}), "
         "trans=frozenset({(0, 'a', 1)}), outs=frozenset()), entries=(0,))", "entries"),
        (CTop(), CTop(), CBisim(), "parse_cert('(top)')", "bound"),
        (CBisim(), CBisim(), CTop(), "parse_cert('(bisim)')", "bound"),
        (CWeaken(HALF, CTop()), CWeaken(eps=Fraction(2, 4), child=CTop()),
         CWeaken(HALF, CBisim()), "parse_cert('(weaken 1/2 (top))')", "eps"),
        (CCoupling(HALF, pairs()), CCoupling(eps=HALF, pairs=pairs()),
         CCoupling(HALF, pairs()[:1]),
         """parse_cert('(coupling 1/2 ((move (act a "L:0") (act a "R:0") (top)) """
         """(move (out v1) (out v1))))')""", "pairs"),
        (CDecomp((CTop(), CBisim())), CDecomp(children=(CTop(), CBisim())),
         CDecomp((CBisim(), CTop())), "parse_cert('(decomp ((top) (bisim)))')", "children"),
        (RbMorphism(1, 1, (parse_expr("a.v1"),)),
         RbMorphism(dom=1, cod=1, rows=(parse_expr("a.v1"),)),
         RbMorphism(1, 2, (parse_expr("a.v1"),)),
         "RbMorphism(dom=1, cod=1, rows=(parse_expr('a.v1'),))", "rows"),
        (int_id((1, 1)), IntMorphism(dom_pair=(1, 1), cod_pair=(1, 1), payload=rb_sym(1, 1)),
         IntMorphism((1, 1), (1, 1), rb_id(2)),
         "IntMorphism(dom_pair=(1, 1), cod_pair=(1, 1), payload=RbMorphism(dom=2, cod=2, "
         "rows=(parse_expr('v2'), parse_expr('v1'))))", "payload"),
    ] + [(cls(), cls(), Del() if cls is Copy else Copy(),
          f"parse_term('{cls.__name__.lower()}')", "x")
         for cls in (Copy, Del, Merge, Gen, Cap, Cup)]


@pytest.mark.parametrize("record, equal, unequal, text, field", records(),
                         ids=[type(row[0]).__name__ for row in records()])
def test_record_repr_eq_hash_and_immutability(record, equal, unequal, text, field):
    assert repr(record) == text
    assert record == equal and not record != equal
    assert hash(record) == hash(equal)
    assert record != unequal and not record == unequal
    assert record != text and record != (record,)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, 1)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    assert repr(record) == text
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


def test_record_hashes_are_the_hash_of_their_fields():
    """The fields' tuple for the records, the printed term for every
    diagram term, leaf or composite."""
    assert hash(P) == hash((P.states, P.trans, P.outs))
    assert hash(Chart(P, 0)) == hash((P, 0))
    assert hash(Act("a")) == hash("act(a)")
    assert hash(Sym(">", "<")) == hash("sym(>,<)")
    assert (hash(Copy()), hash(Del()), hash(Cup())) == (hash("copy"), hash("del"), hash("cup"))
    assert Copy() != Del() and Cap() != Cup() and Id(">") != Sym(">", "")
    assert hash(Seq(Act("a"), Del())) == hash("act(a) ; del")
    assert Seq(Act("a"), Del()) != Tensor(Act("a"), Del())
    assert hash(CTop()) == hash(CBisim()) == hash(())
    assert hash(CWeaken(HALF, CTop())) == hash((HALF, CTop()))
    assert hash(rb_id(1)) == hash((1, 1, (Var(1),)))


def test_certificate_bound_is_no_field():
    """Each node reads the bound it claims, set when it is built, but
    repr, == and hash see the fields alone."""
    node = CDecomp((CTop(), CBisim()))
    assert node.bound == 1
    assert repr(node) == "parse_cert('(decomp ((top) (bisim)))')"
    assert pickle.loads(pickle.dumps(node)).bound == 1
    other = CDecomp((CTop(), CBisim()))
    object.__setattr__(other, "bound", 0)  # a bound no constructor would set
    assert other == node and hash(other) == hash(node) and repr(other) == repr(node)


def test_kleene_result_is_mutable_and_unhashable():
    result = kleene_solve(Prechart(frozenset({0}), frozenset(), frozenset()))
    assert re.sub(r" at 0x[0-9a-f]+>", " at 0x>", repr(result)) == (
        "KleeneResult(table=<chartdist.metric.DistTable object at 0x>, "
        "quotient=Prechart(states=frozenset({0}), trans=frozenset(), outs=frozenset()), "
        "class_of={0: 0}, quotient_tables=[<chartdist.metric.DistTable object at 0x>], "
        "stable_index=0)")
    same = KleeneResult(result.table, result.quotient, result.class_of,
                        result.quotient_tables, result.stable_index)
    assert same == result
    with pytest.raises(TypeError, match="^unhashable type: 'KleeneResult'$"):
        hash(result)
    same.stable_index = 5
    assert same.stable_index == 5 and same != result


@pytest.mark.parametrize("build, message", [
    (lambda: Act("A"), "invalid action letter 'A'"),
    (lambda: Act(1), "invalid action letter 1"),
    (lambda: Id("x"), "identity wire word must be a string over '>' and '<', got 'x'"),
    (lambda: Sym(">", "x"), "swap wire word must be a string over '>' and '<', got 'x'"),
    (lambda: Sym(1, ">"), "swap wire word must be a string over '>' and '<', got 1"),
    (lambda: Prechart(frozenset({0}), frozenset({(0, "a", 1)}), frozenset()),
     "transition (0, 'a', 1) references undeclared state"),
    (lambda: Prechart(frozenset({0}), frozenset({(0, "A", 0)}), frozenset()),
     "invalid action letter 'A'"),
    (lambda: Prechart(frozenset({0}), frozenset(), frozenset({(1, 1)})),
     "output (1, 1) references undeclared state"),
    (lambda: Prechart(frozenset({0}), frozenset(), frozenset({(0, 0)})),
     "invalid output variable 0"),
    (lambda: Chart(P, 5), "start state 5 is not a state"),
])
def test_record_validation_errors(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("build, error, message", [
    (lambda: CWeaken(1, CTop()), TypeError, "bound must be a Fraction"),
    (lambda: CCoupling(Fraction(2), ()), ValueError, "bound 2 outside [0, 1]"),
    (lambda: CWeaken(Fraction(-1, 2), CTop()), ValueError, "bound -1/2 outside [0, 1]"),
    (lambda: RbMorphism(-1, 0, ()), ValueError, "negative interface"),
    (lambda: IntMorphism((1, -1), (0, 1), rb_id(1)), ValueError, "negative interface"),
    (lambda: RbMorphism(2, 0, (ZERO,)), ValueError, "expected 2 rows, got 1"),
    (lambda: RbMorphism(1, 0, (Var(1),)), ValueError,
     "row 1 has free variables [1] beyond v0"),
    (lambda: RbMorphism(1, 0, ("x",)), TypeError, "row 1 is not an expression"),
    (lambda: IntMorphism((1, 0), (0, 1), rb_id(2)), RbTypeError,
     "payload 2->2 does not fit (1,0)->(0,1); expected 2->0"),
])
def test_certificate_and_morphism_errors(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_deep_certificates_compare_hash_and_print():
    """== walks a certificate with a stack, and repr prints its text:
    the derive certificate of 1,500 actions then del against 1,501, a
    chain of 1,500 couplings, reads back equal, hashes alike and prints."""
    left, right = (parse_term(" ; ".join(["act(a)"] * n + ["del"])) for n in (1500, 1501))
    cert = synthesize(left, right)
    back = parse_cert(format_cert(cert))
    assert back == cert and not back != cert
    assert hash(back) == hash(cert)
    text = repr(cert)
    assert repr(back) == text and text.startswith("parse_cert('(coupling 1/")
    assert text.count("(coupling ") == 1500
    assert text.endswith("(top)" + ")))" * 1500 + "')")


def _other_move(m):
    return ("act", "b" if m[1] == "a" else "a", m[2]) if m[0] == "act" else ("out", m[1] + 1)


def _mutations(cert):
    """Each certificate that differs from cert in one field of one node:
    an eps changed, a move changed, a child replaced by (top), or a pair
    or a child dropped."""
    if isinstance(cert, CWeaken):
        yield CWeaken(cert.eps / 2, cert.child)
        yield CWeaken(cert.eps, CTop())
        yield from (CWeaken(cert.eps, sub) for sub in _mutations(cert.child))
    elif isinstance(cert, CCoupling):
        yield CCoupling(cert.eps / 2, cert.pairs)
        for i, (m1, m2, child) in enumerate(cert.pairs):
            before, after = cert.pairs[:i], cert.pairs[i + 1:]
            for pairs in (((_other_move(m1), m2, child),), ((m1, _other_move(m2), child),),
                          ((m1, m2, CTop()),), ()):
                yield CCoupling(cert.eps, before + pairs + after)
            for sub in () if child is None else _mutations(child):
                yield CCoupling(cert.eps, before + ((m1, m2, sub),) + after)
    elif isinstance(cert, CDecomp):
        for i, child in enumerate(cert.children):
            before, after = cert.children[:i], cert.children[i + 1:]
            for kids in ((CTop(),), (), *((sub,) for sub in _mutations(child))):
                yield CDecomp(before + kids + after)


def test_certificates_agree_with_their_dataclasses():
    """The derive certificates, tight and weakened to 1, of each
    same-boundary corpus pair in both formats and of the pair's two
    diagrams side by side, and each one-field mutation of them: ==, !=
    and hash agree with those of the certificates as frozen dataclasses,
    both ways, and repr reads back as an equal node."""
    certs = []
    rows = corpus_rows()
    for i, (e1, d1) in enumerate(rows):
        for e2, d2 in rows[i + 1:]:
            if typecheck(parse_term(d1)) == typecheck(parse_term(d2)):
                for parse, left, right in ((parse_expr, e1, e2), (parse_term, d1, d2),
                                           (parse_term, f"({d1}) * ({d2})", f"({d2}) * ({d1})")):
                    for eps in (None, Fraction(1)):
                        cert = synthesize(parse(left), parse(right), eps)
                        certs += [cert, *_mutations(cert)]
    assert {type(c) for c in certs} == {CTop, CBisim, CWeaken, CCoupling, CDecomp}
    records = [cert_dataclass(c) for c in certs]
    for cert, record in zip(certs, records):
        assert hash(cert) == hash(record) and eval(repr(cert)) == cert
    for a, ra in zip(certs, records):
        for b, rb in zip(certs, records):
            assert (a == b, b == a, a != b) == (ra == rb, rb == ra, ra != rb)


def test_records_copy_as_themselves_but_a_kleene_result():
    for record, *_ in records():
        assert copy.copy(record) is record and copy.deepcopy(record) is record
    result = kleene_solve(Prechart(frozenset({0}), frozenset(), frozenset()))
    shallow, deep = copy.copy(result), copy.deepcopy(result)
    assert shallow is not result and shallow == result
    assert shallow.class_of is result.class_of
    assert deep is not result and deep.class_of == result.class_of
    assert deep.class_of is not result.class_of


def test_certificate_node_with_unhashable_fields_is_refused():
    """A node's hash is set when it is built, so its fields must hash."""
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        CCoupling(HALF, [(("out", 1), ("out", 1), None)])
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        CWeaken(HALF, [CTop()])


def _subterms(t):
    """t and each of its subterms, once per node, by an explicit stack."""
    todo = [t]
    while todo:
        node = todo.pop()
        yield node
        if type(node) is Seq:
            todo += (node.second, node.first)
        elif type(node) is Tensor:
            todo += (node.right, node.left)


def test_every_term_is_its_text():
    """Every diagram term, leaf or composite, prints, hashes and pickles
    as its text: repr is parse_term of format_term's text and evaluates
    back to an equal term, hash is the text's, and a pickle round trip
    gives an equal term.  Checked on each node of the corpus diagrams, of
    both sides of each catalogue law and of 300 random forward terms."""
    rng = random.Random(37)
    terms = corpus_diagrams() + [t for _, lhs, rhs in axiom_catalog() for t in (lhs, rhs)]
    terms += [rand_forward(rng, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 4))
              for _ in range(300)]
    kinds = set()
    for term in terms:
        for t in _subterms(term):
            kinds.add(type(t))
            text = format_term(t)
            assert repr(t) == f"parse_term({text!r})" and str(t) == text
            assert eval(repr(t)) == t and hash(t) == hash(text)
            back = pickle.loads(pickle.dumps(t))
            assert type(back) is type(t) and back == t and format_term(back) == text
    assert kinds == {Copy, Del, Merge, Gen, Cap, Cup, Act, Id, Sym, Seq, Tensor}


def _dag(levels):
    """The shared DAG X = a.X + mu vk.b.X of the given number of levels,
    from X = 0: two nodes more per level, and a text that doubles."""
    dag = ZERO
    for k in range(1, levels + 1):
        dag = Sum(Prefix("a", dag), Mu(k, Prefix("b", dag)))
    return dag


def test_expressions_copy_as_themselves_with_no_parse(monkeypatch):
    """An expression is its own copy, shallow or deep, alone or inside a
    container, and copying reads no text: parse_expr is never called,
    not even for the 18-level DAG, whose text runs to millions of
    characters."""
    nodes = [ZERO, Var(1), parse_expr("a.v1 + mu v2.b.(v2 + c.0)"), _dag(18)]
    calls = []
    parse = expr.parse_expr
    monkeypatch.setattr(expr, "parse_expr", lambda *args: calls.append(args) or parse(*args))
    for e in nodes:
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        assert copy.deepcopy([e, (e,)])[1][0] is e
    assert calls == []
