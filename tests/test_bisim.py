"""Partition refinement, witnesses, stratification, and quotients."""

import math
import random

import pytest
from hypothesis import given, settings

from chartdist import (
    Chart, Refinement, bisimilar, coarsest_partition, disjoint_union, expand,
    is_bisimulation, live_vars, parse_chart_text, parse_expr, quotient,
    split_table, stratified_level,
)
from helpers import (
    RefRefinement, brute_bisimilar, brute_level, brute_related_pairs,
    cycle_text, precharts, rand_chart, rand_expr,
)


def test_agrees_with_pair_elimination():
    rng = random.Random(11)
    for _ in range(80):
        c1, c2 = rand_chart(rng), rand_chart(rng)
        assert bisimilar(c1, c2)[0] == brute_bisimilar(c1, c2)


def test_witness_is_a_bisimulation():
    rng = random.Random(12)
    found = 0
    while found < 25:
        e1, e2 = rand_expr(rng), rand_expr(rng)
        c1, c2 = expand(e1), expand(e2)
        ok, witness = bisimilar(c1, c2)
        if not ok:
            continue
        found += 1
        assert (c1.start, c2.start) in witness
        assert is_bisimulation(c1, c2, witness)


def test_separating_level_matches_oracle():
    rng = random.Random(13)
    for _ in range(60):
        c1, c2 = rand_chart(rng), rand_chart(rng)
        assert stratified_level(c1, c2) == brute_level(c1, c2)


def test_bisimilar_reports_least_separating_level():
    c1 = expand(parse_expr("a.0"))
    c2 = expand(parse_expr("b.0"))
    assert bisimilar(c1, c2) == (False, 1)
    c3 = expand(parse_expr("a.a.0"))
    c4 = expand(parse_expr("a.0"))
    assert bisimilar(c3, c4) == (False, 2)


def test_stratified_level_examples():
    same = expand(parse_expr("mu v1.a.v1"))
    assert stratified_level(same, same) == math.inf
    assert stratified_level(expand(parse_expr("a.a.0")), expand(parse_expr("a.0"))) == 1
    assert stratified_level(expand(parse_expr("v1")), expand(parse_expr("v2"))) == 0


def test_unfolding_is_bisimilar():
    pairs = [
        ("mu v1.a.v1", "mu v1.a.a.v1"),
        ("mu v1.a.v1", "a.mu v1.a.v1"),
        ("mu v1.v1", "0"),
        ("mu v1.v1+v2", "v2"),
        ("b.(v1+v1)", "b.v1"),
    ]
    for l, r in pairs:
        ok, witness = bisimilar(expand(parse_expr(l)), expand(parse_expr(r)))
        assert ok, (l, r)
        assert is_bisimulation(expand(parse_expr(l)), expand(parse_expr(r)), witness)


def test_coarsest_partition_blocks_match_oracle():
    rng = random.Random(14)
    for _ in range(40):
        p = rand_chart(rng).prechart
        part = coarsest_partition(p)
        rel = brute_related_pairs(p)
        for x in p.states:
            for y in p.states:
                assert part.same_block(x, y) == ((x, y) in rel)


def test_quotient_collapses_to_distinct_classes():
    rng = random.Random(15)
    for _ in range(40):
        c = rand_chart(rng)
        q, cls = quotient(c.prechart)
        assert set(cls) == set(c.prechart.states)
        assert set(cls.values()) == set(q.states)
        # no two distinct quotient states may still be bisimilar
        qrel = brute_related_pairs(q)
        assert all(x == y for (x, y) in qrel)
        # quotienting again changes nothing further
        q2, cls2 = quotient(q)
        assert len(q2.states) == len(q.states)


def test_quotient_map_is_a_bisimulation():
    rng = random.Random(16)
    for _ in range(25):
        c = rand_chart(rng)
        q, cls = quotient(c.prechart)
        for state in c.prechart.states:
            ok, _ = bisimilar(Chart(c.prechart, state), Chart(q, cls[state]))
            assert ok


def test_quotient_preserves_live_vars():
    rng = random.Random(17)
    for _ in range(25):
        c = rand_chart(rng)
        q, cls = quotient(c.prechart)
        assert live_vars(Chart(q, cls[c.start])) == live_vars(c)


def test_is_bisimulation_rejects_junk():
    c1 = expand(parse_expr("a.0"))
    c2 = expand(parse_expr("b.0"))
    assert not is_bisimulation(c1, c2, {(c1.start, c2.start)})
    assert is_bisimulation(c1, c2, set())


def assert_refines_like_reference(p):
    """Refinement and RefRefinement agree on everything they report, both
    while rounds are computed on demand and once they have all run."""
    r, ref = Refinement(p), RefRefinement(p)
    assert r.order == ref.order
    for x in ref.order:
        for y in ref.order:
            assert r.level(x, y) == ref.level(x, y)
            assert r.rounds == ref.rounds
    assert r.classes() == ref.classes()
    assert (r.rounds, r.max_level()) == (ref.rounds, ref.max_level())
    assert split_table(r).to_tsv() == split_table(ref).to_tsv()
    pairs = [(x, y) for x in ref.order for y in ref.order]
    r, ref = Refinement(p), RefRefinement(p)
    assert r.least_level(pairs) == ref.least_level(pairs)
    assert r.rounds == ref.rounds
    assert (r.max_level(), r.rounds, r.classes()) == (ref.max_level(), ref.rounds, ref.classes())


@given(precharts())
@settings(max_examples=300, deadline=None)
def test_refinement_matches_reference(p):
    assert_refines_like_reference(p)


@pytest.mark.parametrize("n", range(8, 41))
def test_refinement_matches_reference_on_cycle_pairs(n):
    union, _, _ = disjoint_union(parse_chart_text(cycle_text(n)),
                                 parse_chart_text(cycle_text(n + 1)))
    assert_refines_like_reference(union)
