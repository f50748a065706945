"""Refusals and edge answers that no other test reaches, with the
messages they give today."""

import contextlib
import io
from fractions import Fraction

import pytest

from chartdist import (
    Id, bisimilar, component, format_cert, format_term, free_vars, loop1, parse_expr,
    parse_term, substitute, zip_merge,
)
from chartdist.chart import state_key
from chartdist.cli import main
from chartdist.diagram import DiagramTypeError
from chartdist.metric import DistTable

A_V1 = parse_expr("a.v1")


def cli(*argv):
    """The exit code of a command and the last line it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue().splitlines()[-1]


def outcome(call):
    """What call returns, or the class and message of what it raises."""
    try:
        return call()
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("call, want", [
    (lambda: cli("dist", "--max-states", "abc", "a.0", "0"),
     (1, "chartdist dist: error: argument --max-states: invalid int value: 'abc'")),
    (lambda: component(Id("<"), 1),
     (DiagramTypeError, "component needs a forward domain; bend first")),
    (lambda: component(parse_term("act(a) * act(b)"), 3),
     (ValueError, "input index 3 out of range 1..2")),
    (lambda: zip_merge(-1), (ValueError, "negative width")),
    (lambda: loop1(parse_term("del")),
     (DiagramTypeError, "feedback needs nonempty forward boundaries")),
    (lambda: format_term(5), (TypeError, "not a diagram term: 5")),
    (lambda: format_cert(5), (TypeError, "not a certificate: 5")),
    (lambda: free_vars(5), (TypeError, "not an expression: 5")),
    (lambda: substitute(A_V1, [(1, parse_expr("0")), (1, parse_expr("b.0"))]),
     (ValueError, "duplicate substitution for v1")),
    (lambda: substitute(A_V1, []) is A_V1, True),
    (lambda: DistTable([0, 1]).set(0, 1, Fraction(3, 2)),
     (ValueError, "distance out of range: 3/2")),
    (lambda: hash(DistTable([0])), (TypeError, "DistTable is unhashable")),
    (lambda: DistTable([0, 1]).le(DistTable([0, 2])),
     (ValueError, "tables over different state sets")),
    (lambda: bisimilar(1, 2), (TypeError, "expected two charts")),
    (lambda: sorted([True, "a", 2, "B", 1], key=state_key), [1, 2, "B", True, "a"]),
], ids=["dist --max-states abc", "component backward", "component index", "zip_merge(-1)",
        "loop1 del", "format_term(5)", "format_cert(5)", "free_vars(5)", "substitute twice",
        "substitute nothing", "DistTable.set", "hash(DistTable)", "DistTable.le",
        "bisimilar(1, 2)", "state_key True"])
def test_refusals_keep_their_messages(call, want):
    assert outcome(call) == want
