"""The immutable records of the package: Prechart, Chart, the diagram
leaves, Seq, Tensor, OpenChart, KleeneResult, the certificate
nodes and the regbeh morphisms.

Their repr, ==, hash, immutability and validation errors are public.
The expected values below are those the records had as dataclasses,
written out."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from chartdist.chart import Chart, Prechart
from chartdist.derive import (
    CBisim, CCoupling, CDecomp, CTop, CWeaken, format_cert, parse_cert, synthesize,
)
from chartdist.diagram import (
    Act, Cap, Copy, Cup, Del, Gen, Id, Merge, OpenChart, Seq, Sym, Tensor,
    open_chart, parse_term,
)
from chartdist.expr import ZERO, Var, parse_expr
from chartdist.metric import KleeneResult, kleene_solve
from chartdist.regbeh import IntMorphism, RbMorphism, RbTypeError, int_id, rb_id, rb_sym

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
        (Act("a"), Act(letter="a"), Act("b"), "Act(letter='a')", "letter"),
        (Id("><"), Id(word="><"), Id(">"), "Id(word='><')", "word"),
        (Sym(">", "<"), Sym(left=">", right="<"), Sym("<", ">"),
         "Sym(left='>', right='<')", "left"),
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
        (CTop(), CTop(), CBisim(), "CTop()", "bound"),
        (CBisim(), CBisim(), CTop(), "CBisim()", "bound"),
        (CWeaken(HALF, CTop()), CWeaken(eps=Fraction(2, 4), child=CTop()),
         CWeaken(HALF, CBisim()), "CWeaken(eps=Fraction(1, 2), child=CTop())", "eps"),
        (CCoupling(HALF, pairs()), CCoupling(eps=HALF, pairs=pairs()),
         CCoupling(HALF, pairs()[:1]),
         "CCoupling(eps=Fraction(1, 2), pairs=((('act', 'a', 'L:0'), ('act', 'a', 'R:0'), "
         "CTop()), (('out', 1), ('out', 1), None)))", "pairs"),
        (CDecomp((CTop(), CBisim())), CDecomp(children=(CTop(), CBisim())),
         CDecomp((CBisim(), CTop())), "CDecomp(children=(CTop(), CBisim()))", "children"),
        (RbMorphism(1, 1, (parse_expr("a.v1"),)),
         RbMorphism(dom=1, cod=1, rows=(parse_expr("a.v1"),)),
         RbMorphism(1, 2, (parse_expr("a.v1"),)),
         "RbMorphism(dom=1, cod=1, rows=(parse_expr('a.v1'),))", "rows"),
        (int_id((1, 1)), IntMorphism(dom_pair=(1, 1), cod_pair=(1, 1), payload=rb_sym(1, 1)),
         IntMorphism((1, 1), (1, 1), rb_id(2)),
         "IntMorphism(dom_pair=(1, 1), cod_pair=(1, 1), payload=RbMorphism(dom=2, cod=2, "
         "rows=(parse_expr('v2'), parse_expr('v1'))))", "payload"),
    ] + [(cls(), cls(), Del() if cls is Copy else Copy(), f"{cls.__name__}()", "x")
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
    """The fields' tuple for the records, the printed term for Seq and
    Tensor."""
    assert hash(P) == hash((P.states, P.trans, P.outs))
    assert hash(Chart(P, 0)) == hash((P, 0))
    assert hash(Act("a")) == hash(("a",))
    assert hash(Sym(">", "<")) == hash((">", "<"))
    assert hash(Copy()) == hash(Del()) == hash(Cup()) == hash(())
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
    assert repr(node) == "CDecomp(children=(CTop(), CBisim()))"
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
    """==, hash and repr walk a certificate with a stack: the derive
    certificate of 1,500 actions then del against 1,501, a chain of
    1,500 couplings, reads back equal, hashes alike and prints."""
    left, right = (parse_term(" ; ".join(["act(a)"] * n + ["del"])) for n in (1500, 1501))
    cert = synthesize(left, right)
    back = parse_cert(format_cert(cert))
    assert back == cert and not back != cert
    assert hash(back) == hash(cert)
    text = repr(cert)
    assert repr(back) == text and text.startswith("CCoupling(eps=Fraction(1, ")
    assert text.count("CCoupling(") == 1500
    assert text.endswith(", CTop()),))" + "),))" * 1499)
