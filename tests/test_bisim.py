"""Partition refinement, witnesses, stratification, and quotients."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings

from chartdist import (
    Chart, Prechart, bisimilar, coarsest_partition, disjoint_union, expand, format_chart_text,
    format_expr, parse_chart_text, parse_expr, parse_term, quotient, stratified_level,
)
from chartdist.bisim import _refine_pair, witness_pairs
from chartdist.chart import _read_chart
from helpers import (
    RefRefinement, brute_bisimilar, brute_level, brute_related_pairs, chain_text, cycle_text,
    is_bisimulation, large_precharts, live_vars, numbered_refinement, precharts, rand_chart,
    rand_expr, rand_forward, ref_expand, ref_open_chart, ref_parse_chart_text,
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


def test_witness_pairs_names_each_state_once():
    """On a 100-cycle with no output against itself every state has 100
    partners, and each state is still named once."""
    c = parse_chart_text(cycle_text(100, outs_at=()))
    joint, refinement = _refine_pair(c, c)
    left, right = range(joint.split), range(joint.split, len(joint.succ))
    named = []
    pairs = witness_pairs(refinement, left, right, lambda i: named.append(i) or i)
    assert len(named) == len(left) + len(right) == 200
    assert pairs == {(x, y) for x in left for y in right}


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
        block_of = {q: b for b in coarsest_partition(p) for q in b}
        rel = brute_related_pairs(p)
        for x in p.states:
            for y in p.states:
                assert (y in block_of[x]) == ((x, y) in rel)


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
    """Refinement, on p's states numbered, and RefRefinement, on their
    names, agree on everything they report, both while rounds are
    computed on demand and once they have all run."""
    (states, r), ref = numbered_refinement(p), RefRefinement(p)
    number = {q: i for i, q in enumerate(states)}
    assert states == ref.order
    for x in ref.order:
        for y in ref.order:
            assert r.level(number[x], number[y]) == ref.level(x, y)
            assert r.rounds == ref.rounds
    assert dict(zip(states, r.classes())) == ref.classes()
    assert (r.rounds, r.max_level()) == (ref.rounds, ref.max_level())
    pairs = [(x, y) for x in ref.order for y in ref.order]
    (_, r), ref = numbered_refinement(p), RefRefinement(p)
    assert r.least_level([(number[x], number[y]) for x, y in pairs]) == ref.least_level(pairs)
    assert r.rounds == ref.rounds
    assert (r.max_level(), r.rounds, dict(zip(states, r.classes()))) == \
        (ref.max_level(), ref.rounds, ref.classes())


@given(precharts())
@settings(max_examples=300, deadline=None)
def test_refinement_matches_reference(p):
    assert_refines_like_reference(p)


@given(large_precharts())
@settings(max_examples=150, deadline=None)
def test_refinement_matches_reference_on_large_precharts(p):
    """Chains, copies and self-loops of up to 40 states: rounds that sign
    only the touched members of a block, parts of equal size and the
    predecessor lists built at the second round meet the reference."""
    assert_refines_like_reference(p)


# sha256 over the answers below of the refinement that signed every state
# in every round, computed before it was replaced
REFINEMENT_ANSWERS = "5359f336f45f4d27f4cfba4f77944b08da2f7526b7e467106ffdfe4b807c4f98"


def test_refinement_answers_are_pinned():
    """Every level(x, y) with x < y, then rounds, max_level() and classes(),
    of each pair of charts: n- against (n+1)-cycles for n = 8..64,
    n-cycles against their unfoldings to 2n states for n = 4..24, and a-chains
    of n against n + 1 states for n = 50, 100, 200 and 400."""
    pairs = [(cycle_text(n), cycle_text(n + 1)) for n in range(8, 65)]
    pairs += [(cycle_text(n), cycle_text(2 * n, outs_at=(0, n))) for n in range(4, 25)]
    pairs += [(chain_text(n), chain_text(n + 1)) for n in (50, 100, 200, 400)]
    digest = hashlib.sha256()
    for left, right in pairs:
        union, _, _ = disjoint_union(parse_chart_text(left), parse_chart_text(right))
        _, r = numbered_refinement(union)
        n = len(union.states)
        levels = [r.level(x, y) for x in range(n) for y in range(x + 1, n)]
        digest.update(repr((levels, r.rounds, r.max_level(), r.classes())).encode())
    assert digest.hexdigest() == REFINEMENT_ANSWERS


def signature_counts(pairs):
    """Refinement.signatures of each pair's joint, refined to the end."""
    counts = []
    for f, g in pairs:
        _, r = _refine_pair(f, g)
        r.classes()
        counts.append(r.signatures)
    return counts


def test_signatures_grow_near_linearly():
    """Doubling the states at most 2.3-folds the signatures built, on cycle
    pairs (n = 64..1024) and on diagram chains of n against n + 1 act(a)
    (n = 250..2000); signing every state in every round 4-folds them."""
    cycles = signature_counts((_read_chart(cycle_text(n)), _read_chart(cycle_text(n + 1)))
                              for n in (64, 128, 256, 512, 1024))
    chains = signature_counts((parse_term(";".join(["act(a)"] * n + ["del"])),
                               parse_term(";".join(["act(a)"] * (n + 1) + ["del"])))
                              for n in (250, 500, 1000, 2000))
    for counts in (cycles, chains):
        assert all(b <= 2.3 * a for a, b in zip(counts, counts[1:])), counts


@pytest.mark.parametrize("n", range(8, 41))
def test_refinement_matches_reference_on_cycle_pairs(n):
    union, _, _ = disjoint_union(parse_chart_text(cycle_text(n)),
                                 parse_chart_text(cycle_text(n + 1)))
    assert_refines_like_reference(union)


def reference_joint(kind, f, g):
    """The joint prechart of two inputs and its seed rows, built from the
    references and named as the queries name states: two expansions
    share their canonical texts, and the states of two charts, read from
    their texts, or of two open charts are tagged "L:" and "R:" by side."""
    if kind == "expr":
        c1, c2 = ref_expand(format_expr(f)), ref_expand(format_expr(g))
        return (Prechart(c1.states | c2.states, c1.trans | c2.trans, c1.outs | c2.outs),
                [(c1.start, c2.start)])
    if kind == "chart":
        f, g = ref_parse_chart_text(f), ref_parse_chart_text(g)
        (p1, p2), rows = (f.prechart, g.prechart), [(f.start, g.start)]
    else:
        o1, o2 = ref_open_chart(f), ref_open_chart(g)
        (p1, p2), rows = (o1.prechart, o2.prechart), list(zip(o1.entries, o2.entries))
    parts = [(frozenset(f"{side}:{q}" for q in p.states),
              frozenset((f"{side}:{q}", a, f"{side}:{r}") for q, a, r in p.trans),
              frozenset((f"{side}:{q}", v) for q, v in p.outs))
             for side, p in (("L", p1), ("R", p2))]
    return (Prechart(*(left | right for left, right in zip(*parts))),
            [(f"L:{x}", f"R:{y}") for x, y in rows])


def random_pair(kind, rng):
    """Two random inputs of a kind; charts as text."""
    if kind == "expr":
        return rand_expr(rng), rand_expr(rng)
    if kind == "chart":
        return format_chart_text(rand_chart(rng)), format_chart_text(rand_chart(rng))
    m, n = rng.randint(0, 2), rng.randint(0, 2)
    return rand_forward(rng, m, n, 3), rand_forward(rng, m, n, 3)


@pytest.mark.parametrize("kind", ["expr", "chart", "diag"])
def test_numbered_joint_matches_references(kind):
    """Each number of the joint that the queries refine names the state of
    the reference joint with its moves and outputs, the rows name the
    reference seeds, and every pair of numbers has the level that the
    reference refinement gives the pair of names.  Chart texts are read
    as the command line reads them."""
    rng = random.Random(2026)
    for _ in range(60):
        f, g = random_pair(kind, rng)
        joint, r = _refine_pair(*((_read_chart(f), _read_chart(g)) if kind == "chart" else
                                  (f, g)))
        p, rows = reference_joint(kind, f, g)
        names = [joint.name(i) for i in range(len(joint.succ))]
        assert len(set(names)) == len(names)
        assert joint.prechart() == p
        assert [(names[x], names[y]) for x, y in joint.rows] == rows
        ref = RefRefinement(p)
        assert [[r.level(i, j) for j in range(len(names))] for i in range(len(names))] == \
            [[ref.level(x, y) for y in names] for x in names]
