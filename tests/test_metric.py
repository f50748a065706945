"""Behavioural distance: lifting, fixpoint iteration, stratified form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from chartdist import (
    Chart, DistTable, Refinement, bd_expressions, bd_kleene,
    bd_stratified, coarsest_partition, disjoint_union, expand, hausdorff,
    is_dyadic_or_zero, kleene_solve, lift_edge, parse_expr, phi, quotient,
    split_table,
)
from helpers import brute_distance, brute_partition, precharts, rand_chart, rand_expr

# Values recomputed by tests.helpers.brute_distance, which iterates the
# defining sup-inf operator on exact Fractions after collapsing
# bisimilar states.
KNOWN_DISTANCES = [
    ("a.0", "b.0", Fraction(1)),
    ("v1", "v2", Fraction(1)),
    ("0", "v1", Fraction(1)),
    ("a.0", "a.b.0", Fraction(1, 2)),
    ("a.(b.0+c.0)", "a.b.0+a.c.0", Fraction(1, 2)),
    ("a.a.0", "a.0", Fraction(1, 2)),
    ("mu v1.a.v1", "a.a.mu v1.a.v1", Fraction(0)),
    ("a.v1+a.v2", "a.v1", Fraction(1, 2)),
    ("mu v1.a.(v1+v2)", "mu v1.a.v1", Fraction(1, 2)),
    ("b.mu v1.a.v1", "b.a.a.mu v1.a.v1", Fraction(0)),
    (
        "a.(a.0 + b.mu v1.a.v1)+b.mu v1.a.v1",
        "mu v2.(a.v2 + b.mu v1.a.a.v1)",
        Fraction(1, 4),
    ),
]


@pytest.mark.parametrize("left,right,want", KNOWN_DISTANCES)
def test_known_distances(left, right, want):
    assert bd_expressions(parse_expr(left), parse_expr(right)) == want


def test_known_distances_match_brute_oracle():
    for left, right, want in KNOWN_DISTANCES:
        assert brute_distance(expand(parse_expr(left)), expand(parse_expr(right))) == want


def test_lift_edge_costs():
    d = DistTable(["x", "y"])
    d.set("x", "y", Fraction(1, 2))
    assert lift_edge(d.get, ("out", 1), ("out", 1)) == 0
    assert lift_edge(d.get, ("out", 1), ("out", 2)) == 1
    assert lift_edge(d.get, ("act", "a", "x"), ("act", "a", "y")) == Fraction(1, 4)
    assert lift_edge(d.get, ("act", "a", "x"), ("act", "b", "y")) == 1
    assert lift_edge(d.get, ("act", "a", "x"), ("out", 1)) == 1
    assert lift_edge(d.get, ("act", "a", "x"), ("act", "a", "x")) == 0


def test_hausdorff_empty_set_conventions():
    def cost(m1, m2):
        return Fraction(1, 3)

    some = {("out", 1)}
    assert hausdorff(cost, set(), set()) == 0
    assert hausdorff(cost, some, set()) == 1
    assert hausdorff(cost, set(), some) == 1
    assert hausdorff(cost, some, some) == Fraction(1, 3)


def test_phi_is_monotone():
    rng = random.Random(31)
    for _ in range(40):
        p = rand_chart(rng).prechart
        states = sorted(p.states, key=str)
        d1 = DistTable(states)
        d2 = DistTable(states)
        for i, x in enumerate(states):
            for y in states[i + 1:]:
                lo = Fraction(1, 2 ** rng.randint(0, 4)) if rng.random() < 0.8 else Fraction(0)
                hi = min(Fraction(1), lo * 2 ** rng.randint(0, 2))
                d1.set(x, y, lo)
                d2.set(x, y, hi)
        assert d1.le(d2)
        assert phi(p, d1).le(phi(p, d2))


def test_phi_from_top_decreases():
    rng = random.Random(32)
    for _ in range(20):
        p = rand_chart(rng).prechart
        top = DistTable.top(p.states)
        once = phi(p, top)
        assert once.le(top)
        assert phi(p, once).le(once)


def test_dist_table_pseudometric_check():
    t = DistTable(["x", "y", "z"])
    assert t.is_pseudometric()  # all zero
    t.set("x", "y", Fraction(1, 2))
    t.set("y", "z", Fraction(1, 4))
    t.set("x", "z", Fraction(1, 2))
    assert t.is_pseudometric()
    t.set("x", "z", Fraction(0))
    # x-y may now exceed x-z + z-y = 1/4
    assert not t.is_pseudometric()


def test_dist_table_tsv_is_sorted_and_exact():
    t = DistTable(["b", "a"])
    t.set("a", "b", Fraction(3, 4))
    lines = t.to_tsv().splitlines()
    assert lines[0].split("\t") == ["", "a", "b"]
    assert lines[1].split("\t") == ["a", "0", "3/4"]


def test_is_dyadic_or_zero():
    assert is_dyadic_or_zero(Fraction(0))
    assert is_dyadic_or_zero(Fraction(1))
    assert is_dyadic_or_zero(Fraction(1, 8))
    assert not is_dyadic_or_zero(Fraction(1, 3))
    assert not is_dyadic_or_zero(Fraction(3, 4))


def test_kleene_equals_stratified_and_oracle():
    rng = random.Random(33)
    for _ in range(100):
        c1, c2 = rand_chart(rng), rand_chart(rng)
        union, s1, s2 = disjoint_union(c1, c2)
        res = kleene_solve(union)
        value = res.table.get(s1, s2)
        assert value == bd_stratified(c1, c2)
        assert is_dyadic_or_zero(value)
        nq = len(res.quotient.states)
        assert res.stable_index <= nq * nq + 1


def test_kleene_matches_brute_oracle():
    rng = random.Random(34)
    for _ in range(40):
        c1, c2 = rand_chart(rng, max_states=5), rand_chart(rng, max_states=5)
        assert bd_stratified(c1, c2) == brute_distance(c1, c2)


def test_kleene_chain_shape():
    union, s1, s2 = disjoint_union(
        expand(parse_expr("a.a.0")), expand(parse_expr("a.0")))
    res = kleene_solve(union)
    tables = res.quotient_tables
    # index 0 is everywhere-1 off the diagonal, then the chain only drops
    states = sorted(res.quotient.states, key=str)
    for i, x in enumerate(states):
        for y in states[i + 1:]:
            assert tables[0].get(x, y) == 1
    for earlier, later in zip(tables, tables[1:]):
        assert later.le(earlier)
    assert res.iterations == res.stable_index


def test_whole_table_is_a_pseudometric():
    rng = random.Random(35)
    for _ in range(30):
        union, _, _ = disjoint_union(rand_chart(rng), rand_chart(rng))
        assert bd_kleene(union).is_pseudometric()


def test_table_entries_match_pointed_distances():
    rng = random.Random(36)
    for _ in range(10):
        c = rand_chart(rng)
        table = bd_kleene(c.prechart)
        states = sorted(c.prechart.states, key=str)
        for x in states[:4]:
            for y in states[:4]:
                got = bd_stratified(Chart(c.prechart, x), Chart(c.prechart, y))
                assert table.get(x, y) == got


def test_pseudometric_laws_on_expressions():
    rng = random.Random(37)
    for _ in range(60):
        e, f, g = (rand_expr(rng) for _ in range(3))
        def d(x, y):
            return bd_expressions(x, y)
        assert d(e, e) == 0
        assert d(e, f) == d(f, e)
        assert d(e, g) <= d(e, f) + d(f, g)


def test_prefix_halves_distance():
    rng = random.Random(38)
    from chartdist import Prefix
    for _ in range(60):
        e, f = rand_expr(rng), rand_expr(rng)
        base = bd_expressions(e, f)
        stepped = bd_expressions(Prefix("a", e), Prefix("a", f))
        assert stepped == base / 2


def test_substitution_is_nonexpansive():
    rng = random.Random(39)
    from chartdist import substitute
    for _ in range(60):
        e, f = rand_expr(rng), rand_expr(rng)
        g1, h1 = rand_expr(rng, depth=2), rand_expr(rng, depth=2)
        g2, h2 = rand_expr(rng, depth=2), rand_expr(rng, depth=2)
        left = bd_expressions(
            substitute(e, [(1, g1), (2, g2)]),
            substitute(f, [(1, h1), (2, h2)]),
        )
        bound = max(
            bd_expressions(e, f),
            bd_expressions(g1, h1),
            bd_expressions(g2, h2),
        )
        assert left <= bound


@given(precharts())
@settings(max_examples=300, deadline=None)
def test_refinement_agrees_with_kleene_and_pair_elimination(p):
    res = kleene_solve(p)
    r = Refinement(p)
    assert split_table(r) == res.table
    # the p-th iterate on the quotient is 2^-min(p, level) between classes
    assert res.stable_index == r.max_level()
    member = {c: q for q, c in res.class_of.items()}
    for k in range(res.stable_index + 1):
        table = res.quotient_tables[k]
        for c1, x in member.items():
            for c2, y in member.items():
                want = 0 if c1 == c2 else Fraction(1, 2 ** min(k, r.level(x, y)))
                assert table.get(c1, c2) == want
    assert r.partition() == coarsest_partition(p) == brute_partition(p)
    assert quotient(p)[1] == r.classes() == res.class_of
