"""Shared generators and slow reference oracles for the test suite.

The oracles here recompute results from first principles (pair
elimination for bisimilarity, plain sup-inf iteration in Fractions for
the distance) so the fast implementations have something independent
to disagree with.
"""

import json
import math
import os
import re
import subprocess
import sys
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, make_dataclass
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from chartdist import (
    Act, Cap, Chart, Copy, Cup, Del, DiagramSyntaxError, ExpansionBudgetError, Gen, Id, Merge, Mu,
    OpenChart, Prechart, Prefix, Refinement, Seq, Sum, Sym, Tensor, Var, Zero, disjoint_union,
    expand, format_expr, from_expression, loop1, parse_term, reachable, substitute, typecheck,
)
from chartdist.chart import (
    _LETTER_SET, _LETTERS, ChartFormatError, _valid_letter, _var_index, state_key,
)
from chartdist.derive import _Node
from chartdist.diagram import _fold, _tensor_fold
from chartdist.regbeh import RbMorphism, _solve, leaf_morphism

LETTERS = "ab"
OUTVARS = (1, 2)


# ---------------------------------------------------------------------------
# random object generators (all take an explicit seeded rng)

def rand_expr(rng, maxvar=2, depth=3, _scope=None):
    scope = list(range(1, maxvar + 1)) if _scope is None else _scope
    pick = rng.randrange(6) if depth > 0 else rng.randrange(2)
    if pick == 1 and not scope:
        pick = 0
    if pick == 0:
        return Zero()
    if pick == 1:
        return Var(rng.choice(scope))
    if pick in (2, 3):
        return Prefix(rng.choice(LETTERS), rand_expr(rng, maxvar, depth - 1, scope))
    if pick == 4:
        return Sum(rand_expr(rng, maxvar, depth - 1, scope),
                   rand_expr(rng, maxvar, depth - 1, scope))
    v = max(scope, default=0) + rng.randint(1, 2)
    return Mu(v, rand_expr(rng, maxvar, depth - 1, scope + [v]))


def rand_chart(rng, max_states=8, letters=LETTERS, outvars=OUTVARS):
    n = rng.randint(1, max_states)
    states = frozenset(range(n))
    trans = frozenset(
        (q, a, r)
        for q in range(n) for a in letters for r in range(n)
        if rng.random() < 0.18
    )
    outs = frozenset(
        (q, v) for q in range(n) for v in outvars if rng.random() < 0.25
    )
    return Chart(Prechart(states, trans, outs), 0)


def rand_rb(rng, dom, cod, depth=2):
    rows = tuple(rand_expr(rng, maxvar=cod, depth=depth) for _ in range(dom))
    return RbMorphism(dom, cod, rows)


def ref_rb_dagger(f):
    """regbeh.rb_dagger as it was first written, recursing once per row:
    solve the last row, substitute it into the rest, solve those, and
    back-substitute."""
    n = f.dom
    p = f.cod - n
    if n == 0:
        return RbMorphism(0, p, ())
    if n == 1:
        return RbMorphism(1, p, (_solve(p + 1, f.rows[0]),))
    last = _solve(p + n, f.rows[-1])
    rest = tuple(substitute(r, [(p + n, last)]) for r in f.rows[:-1])
    solved = ref_rb_dagger(RbMorphism(n - 1, p + n - 1, rest))
    back = [(p + i, solved.rows[i - 1]) for i in range(1, n)]
    return RbMorphism(n, p, solved.rows + (substitute(last, back),))


def _merge_all(m):
    # '>'**m -> '>', m >= 1
    t = Id(">")
    for _ in range(m - 1):
        t = Seq(Tensor(Id(">"), t), Merge())
    return t


def _copy_all(n):
    # '>' -> '>'**n, n >= 1
    if n == 1:
        return Id(">")
    return Seq(Copy(), Tensor(Id(">"), _copy_all(n - 1)))


def _bridge(rng, m, n):
    """Any forward term '>'**m -> '>'**n, with a random action thrown in."""
    t = Gen() if m == 0 else _merge_all(m)
    if rng.random() < 0.6:
        t = Seq(t, Act(rng.choice(LETTERS)))
    if n == 0:
        return Seq(t, Del())
    return Seq(t, _copy_all(n))


def rand_forward(rng, m, n, depth):
    """Random well-typed term '>'**m -> '>'**n of bounded syntactic depth."""
    if depth <= 0:
        return _bridge(rng, m, n)
    r = rng.random()
    if r < 0.25:
        k = rng.randint(0, 2)
        return Seq(rand_forward(rng, m, k, depth - 1),
                   rand_forward(rng, k, n, depth - 1))
    if r < 0.45 and m >= 1 and n >= 1:
        m1 = rng.randint(0, m - 1)
        n1 = rng.randint(0, n - 1)
        return Tensor(rand_forward(rng, m1, n1, depth - 1),
                      rand_forward(rng, m - m1, n - n1, depth - 1))
    if r < 0.60:
        return loop1(rand_forward(rng, m + 1, n + 1, depth - 1))
    if r < 0.85 and m == 1:
        return from_expression(rand_expr(rng, maxvar=n, depth=2), n)
    return _bridge(rng, m, n)


def _cups(m):
    """'' -> '>'**m '<'**m, m nested cups."""
    t = Id("")
    for i in range(m):
        t = Seq(t, Tensor(Tensor(Id(">" * i), Cup()), Id("<" * i)))
    return t


def _caps(n):
    """'<'**n '>'**n -> '', n nested caps."""
    t = Id("")
    for i in range(n):
        t = Seq(Tensor(Tensor(Id("<" * i), Cap()), Id(">" * i)), t)
    return t


def transpose(u):
    """The mirror image '<'**n -> '<'**m of a forward term u: '>'**m -> '>'**n,
    bent round with cups and caps; every boundary inside it has backward
    wires, several of them when m or n is."""
    dom, cod = typecheck(u)
    m, n = len(dom), len(cod)
    return Seq(Seq(Tensor(Id("<" * n), _cups(m)),
                   Tensor(Tensor(Id("<" * n), u), Id("<" * m))),
               Tensor(_caps(n), Id("<" * m)))


# ---------------------------------------------------------------------------
# structural chart construction (the paper's six combinators, used against
# expand)

def empty_chart() -> Chart:
    return Chart(Prechart(frozenset({0}), frozenset(), frozenset()), 0)


def relabel(c: Chart, offset: int):
    """Relabel states as consecutive ints starting at offset, in state_key
    order; returns (chart, map)."""
    order = sorted(c.states, key=state_key)
    m = {q: offset + i for i, q in enumerate(order)}
    p = Prechart(
        frozenset(m.values()),
        frozenset((m[q], a, m[r]) for (q, a, r) in c.trans),
        frozenset((m[q], v) for (q, v) in c.outs),
    )
    return Chart(p, m[c.start]), m


def variable_chart(v: int) -> Chart:
    if not isinstance(v, int) or v < 1:
        raise ValueError(f"invalid variable index {v!r}")
    return Chart(Prechart(frozenset({0}), frozenset(), frozenset({(0, v)})), 0)


def prefix_chart(a: str, c: Chart) -> Chart:
    """New start with a single a-transition into the old start; outputs unchanged."""
    if not _valid_letter(a):
        raise ValueError(f"invalid action letter {a!r}")
    inner, _ = relabel(c, 1)
    p = Prechart(
        inner.states | {0},
        inner.trans | {(0, a, inner.start)},
        inner.outs,
    )
    return Chart(p, 0)


def sum_chart(c1: Chart, c2: Chart) -> Chart:
    """New start inheriting the union of both starts' transitions and outputs."""
    left, _ = relabel(c1, 1)
    right, _ = relabel(c2, 1 + len(left.states))
    # only moves out of the two start states are inherited by the new start
    start_trans = {(0, a, r) for (q, a, r) in left.trans if q == left.start}
    start_trans |= {(0, a, r) for (q, a, r) in right.trans if q == right.start}
    start_outs = {(0, v) for (q, v) in left.outs if q == left.start}
    start_outs |= {(0, v) for (q, v) in right.outs if q == right.start}
    p = Prechart(
        left.states | right.states | {0},
        left.trans | right.trans | frozenset(start_trans),
        left.outs | right.outs | frozenset(start_outs),
    )
    return Chart(p, 0)


def subst_chart(c: Chart, charts: Iterable[Chart], variables: Iterable[int]) -> Chart:
    """Simultaneously substitute charts[i] for variables[i] in c.

    Every state of c that outputs variables[i] inherits the moves of the
    i-th chart's start state and drops the output itself.
    """
    charts = list(charts)
    variables = list(variables)
    if len(charts) != len(variables):
        raise ValueError("charts and variables must have equal length")
    if len(set(variables)) != len(variables):
        raise ValueError("substituted variables must be distinct")
    base, _ = relabel(c, 0)
    offset = len(base.states)
    inners = []
    for ci in charts:
        ri, _ = relabel(ci, offset)
        offset += len(ri.states)
        inners.append(ri)

    outs_of = base.prechart.output_map()
    trans = set(base.trans)
    outs = set()
    vset = set(variables)
    for q in base.states:
        e_q = outs_of[q]
        outs |= {(q, v) for v in e_q if v not in vset}
        for v, ci in zip(variables, inners):
            if v in e_q:
                trans |= {(q, a, r) for (s, a, r) in ci.trans if s == ci.start}
                outs |= {(q, w) for (s, w) in ci.outs if s == ci.start}
    states = set(base.states)
    for ci in inners:
        states |= ci.states
        trans |= ci.trans
        outs |= ci.outs
    return Chart(Prechart(frozenset(states), frozenset(trans), frozenset(outs)), base.start)


def rec_chart(v: int, c: Chart) -> Chart:
    """Recursion: states outputting v also inherit the start's moves, v is dropped."""
    if not isinstance(v, int) or v < 1:
        raise ValueError(f"invalid variable index {v!r}")
    outs_of = c.prechart.output_map()
    start_trans = {(a, r) for (q, a, r) in c.trans if q == c.start}
    start_outs = set(outs_of[c.start])
    trans = set(c.trans)
    outs = set()
    for q in c.states:
        e_q = outs_of[q]
        if v in e_q:
            trans |= {(q, a, r) for (a, r) in start_trans}
            outs |= {(q, w) for w in (e_q | start_outs) if w != v}
        else:
            outs |= {(q, w) for w in e_q}
    return Chart(Prechart(c.states, frozenset(trans), frozenset(outs)), c.start)


def live_vars(c: Chart) -> frozenset:
    """Variables output by some reachable state."""
    return frozenset(v for _, v in reachable(c).outs)


def structural_chart(e):
    if isinstance(e, Zero):
        return empty_chart()
    if isinstance(e, Var):
        return variable_chart(e.index)
    if isinstance(e, Prefix):
        return prefix_chart(e.letter, structural_chart(e.body))
    if isinstance(e, Sum):
        return sum_chart(structural_chart(e.left), structural_chart(e.right))
    if isinstance(e, Mu):
        return rec_chart(e.binder, structural_chart(e.body))
    raise TypeError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# brute-force oracles

def is_bisimulation(c1: Chart, c2: Chart, relation) -> bool:
    """Check the two bisimulation clauses for a relation on Q1 x Q2."""
    rel = set(relation)
    t1, t2 = c1.prechart.transition_map(), c2.prechart.transition_map()
    o1, o2 = c1.prechart.output_map(), c2.prechart.output_map()
    for (q1, q2) in rel:
        if o1[q1] != o2[q2]:
            return False
        for (a, r1) in t1[q1]:
            if not any(b == a and (r1, r2) in rel for (b, r2) in t2[q2]):
                return False
        for (a, r2) in t2[q2]:
            if not any(b == a and (r1, r2) in rel for (b, r1) in t1[q1]):
                return False
    return True


def brute_related_pairs(p):
    """Greatest bisimulation on a prechart, by naive pair elimination."""
    beta = p.beta()
    states = sorted(p.states, key=str)

    def outs(x):
        return frozenset(m for m in beta[x] if m[0] == "out")

    def acts(x):
        return [m for m in beta[x] if m[0] == "act"]

    rel = {(x, y) for x in states for y in states if outs(x) == outs(y)}
    changed = True
    while changed:
        changed = False
        for (x, y) in sorted(rel, key=str):
            ok = all(
                any(b == a and (t, u) in rel for (_, b, u) in acts(y))
                for (_, a, t) in acts(x)
            ) and all(
                any(b == a and (t, u) in rel for (_, a, t) in acts(x))
                for (_, b, u) in acts(y)
            )
            if not ok:
                rel.discard((x, y))
                changed = True
    return rel


def brute_partition(p):
    """Bisimilarity classes as a tuple of frozenset blocks, in first-seen
    state_key order, from the pair-elimination oracle."""
    rel = brute_related_pairs(p)
    blocks = []
    for x in sorted(p.states, key=state_key):
        if not any(x in b for b in blocks):
            blocks.append(frozenset(y for y in p.states if (x, y) in rel))
    return tuple(blocks)


def brute_bisimilar(c1, c2):
    union, s1, s2 = disjoint_union(c1, c2)
    return (s1, s2) in brute_related_pairs(union)


def _brute_classes(p):
    rel = brute_related_pairs(p)
    cls = {}
    for x in sorted(p.states, key=str):
        cls[x] = min((y for y in p.states if (x, y) in rel), key=str)
    return cls


def brute_distance(c1, c2):
    """Least-fixpoint distance between two starts, straight from the
    definition: collapse bisimilar states, then iterate the lifted
    Hausdorff operator on exact Fractions until nothing moves."""
    union, s1, s2 = disjoint_union(c1, c2)
    cls = _brute_classes(union)
    beta_full = union.beta()
    classes = sorted(set(cls.values()), key=str)
    beta = {}
    for c in classes:
        moves = set()
        for m in beta_full[c]:
            moves.add(("act", m[1], cls[m[2]]) if m[0] == "act" else m)
        beta[c] = frozenset(moves)

    d = {(x, y): Fraction(0) if x == y else Fraction(1)
         for x in classes for y in classes}
    bound = 4 * len(classes) ** 2 + 4
    for _ in range(bound):
        def cost(m1, m2):
            if m1 == m2:
                return Fraction(0)
            if m1[0] == "act" and m2[0] == "act" and m1[1] == m2[1]:
                return d[(m1[2], m2[2])] / 2
            return Fraction(1)

        def directed(sa, sb):
            return max(
                (min((cost(m1, m2) for m2 in sb), default=Fraction(1))
                 for m1 in sa),
                default=Fraction(0),
            )

        nd = {
            (x, y): max(directed(beta[x], beta[y]), directed(beta[y], beta[x]))
            for x in classes for y in classes
        }
        if nd == d:
            return d[(cls[s1], cls[s2])]
        d = nd
    raise AssertionError("oracle iteration failed to stabilise")


def brute_level(c1, c2):
    """Largest n with the starts related at stratification level n."""
    union, s1, s2 = disjoint_union(c1, c2)
    beta = union.beta()
    states = sorted(union.states, key=str)

    def outs(x):
        return frozenset(m for m in beta[x] if m[0] == "out")

    def acts(x):
        return [m for m in beta[x] if m[0] == "act"]

    rel = {(x, y) for x in states for y in states}
    level = 0
    while True:
        nxt = set()
        for (x, y) in rel:
            if outs(x) != outs(y):
                continue
            fwd = all(
                any(b == a and (t, u) in rel for (_, b, u) in acts(y))
                for (_, a, t) in acts(x)
            )
            bwd = all(
                any(b == a and (t, u) in rel for (_, a, t) in acts(x))
                for (_, b, u) in acts(y)
            )
            if fwd and bwd:
                nxt.add((x, y))
        if (s1, s2) not in nxt:
            return level
        if nxt == rel:
            return math.inf
        rel = nxt
        level += 1


def exprs(max_var=3):
    """Hypothesis strategy of small expressions, possibly with free variables."""
    leaves = st.one_of(
        st.just(Zero()),
        st.builds(Var, st.integers(1, max_var)),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Prefix, st.sampled_from("abc"), sub),
            st.builds(Sum, sub, sub),
            st.builds(Mu, st.integers(1, max_var), sub),
        ),
        max_leaves=12,
    )


@st.composite
def precharts(draw):
    """Small precharts with no start: possibly empty, with unreachable
    states and self-loops, and a few string-named states."""
    n = draw(st.integers(0, 7))
    names = [str(i) if draw(st.booleans()) else i for i in range(n)]
    if not names:
        return Prechart(frozenset(), frozenset(), frozenset())
    state = st.sampled_from(names)
    trans = draw(st.frozensets(st.tuples(state, st.sampled_from("ab"), state),
                               max_size=14))
    loops = draw(st.frozensets(st.tuples(state, st.sampled_from("ab")),
                               max_size=2))
    outs = draw(st.frozensets(st.tuples(state, st.integers(1, 2)), max_size=6))
    return Prechart(frozenset(names), trans | {(q, a, q) for q, a in loops}, outs)


@st.composite
def large_precharts(draw):
    """Precharts of up to 40 states whose refinement runs many rounds and
    splits blocks into parts of equal size: possibly empty, else a random
    core of up to 12 states, possibly a bisimilar copy of it, up to two
    chains of up to 8 a-moves that end in the core or in a dead state, and
    a few self-loops."""
    n = draw(st.integers(0, 12))
    if not n:
        return Prechart(frozenset(), frozenset(), frozenset())
    core = st.integers(0, n - 1)
    trans = set(draw(st.frozensets(st.tuples(core, st.sampled_from("ab"), core),
                                   max_size=2 * n)))
    outs = set(draw(st.frozensets(st.tuples(core, st.integers(1, 2)), max_size=3)))
    states = set(range(n))
    if draw(st.booleans()):  # state q + n is bisimilar to q
        trans |= {(q + n, a, r + n) for q, a, r in trans}
        outs |= {(q + n, v) for q, v in outs}
        states |= {q + n for q in range(n)}
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(1, 8))
        first = len(states)
        chain = range(first, first + k)
        states |= set(chain)
        trans |= {(q, "a", q + 1) for q in chain[:-1]}
        end = draw(st.none() | core)
        if end is not None:
            trans.add((chain[-1], "a", end))
    loops = draw(st.frozensets(st.tuples(st.sampled_from(sorted(states)), st.sampled_from("ab")),
                               max_size=3))
    return Prechart(frozenset(states), frozenset(trans | {(q, a, q) for q, a in loops}),
                    frozenset(outs))


# one corrupted line of each kind of ChartFormatError, or no start line;
# "q" is a declared state and "zz" an undeclared one
CORRUPT_CHART_LINES = (
    "trans q a", "out q", "state q r", "start", "trans q a zz", "out zz v1",
    "trans q v q", "out q v0", "out q v\u00b2", "foo q", "start q", "alphabet a",
    "alphabet a ab", "start zz", "no start",
)


@st.composite
def chart_texts(draw):
    """Chart texts and an --alphabet (or None): comments, blank lines,
    repeated state, trans and out lines, an alphabet line before or after
    the trans lines or none, and possibly one corrupted line of one error
    kind (CORRUPT_CHART_LINES) in place of or beside the start line."""
    names = draw(st.lists(st.sampled_from(["q", "0", "1", "r", "s10"]), min_size=1,
                          max_size=6))
    state = st.sampled_from(names)
    # letters of trans lines, and of an alphabet line or --alphabet, which
    # mostly cover them
    used = st.sampled_from("ab") | st.sampled_from("abc")
    letters = st.builds(set.union, st.just({"a", "b"}) | st.just(set()),
                        st.sets(st.sampled_from("abc")))
    body = [f"trans {q} {a} {r}" for q, a, r in
            draw(st.lists(st.tuples(state, used, state), max_size=10))]
    body += [f"out {q} v{v}" for q, v in
             draw(st.lists(st.tuples(state, st.integers(1, 3)), max_size=4))]
    body = draw(st.permutations(body))
    if body:
        body += draw(st.lists(st.sampled_from(body), max_size=3))
    corrupt = draw(st.none() | st.sampled_from(CORRUPT_CHART_LINES))
    lines = ["state q", *(f"state {q}" for q in names), *body]
    if corrupt not in ("no start", "start zz"):
        lines.insert(draw(st.integers(0, len(lines))), f"start {draw(state)}")
    place = draw(st.sampled_from(["none", "first", "last"]))
    if place != "none":
        lines.insert(0 if place == "first" else len(lines),
                     " ".join(["alphabet", *sorted(draw(letters))]))
    if corrupt not in (None, "no start"):
        lines.insert(draw(st.integers(0, len(lines))), corrupt)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        lines.insert(i, draw(st.sampled_from(["", "# a comment", "   "])))
    lines = [line + draw(st.sampled_from(["", "  ", " # note", "#x"])) for line in lines]
    alphabet = draw(st.none() | letters.filter(bool))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), alphabet


def ref_parse_chart_text(text: str, alphabet=None) -> Chart:
    """The chart format read line by line into sets of names: the reference
    for chartdist.parse_chart_text, with the same checks, messages and
    line numbers."""
    states: set = set()
    trans: set = set()
    outs: set = set()
    declared: set | None = None
    start = start_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "trans":  # the common line first
            if len(parts) != 4:
                raise ChartFormatError("trans line takes: trans q a r", lineno)
            _, q, a, r = parts
            if q not in states or r not in states:
                raise ChartFormatError("trans references undeclared state", lineno)
            if a not in _LETTER_SET:
                raise ChartFormatError(f"invalid action letter {a!r}", lineno)
            if declared is not None and a not in declared:
                raise ChartFormatError(f"letter {a!r} not in declared alphabet", lineno)
            if alphabet is not None and a not in alphabet:
                raise ChartFormatError(f"undeclared letter {a!r}", lineno)
            trans.add((q, a, r))
        elif kind == "alphabet":
            if declared is not None:
                raise ChartFormatError("duplicate alphabet line", lineno)
            declared = set(parts[1:])
            for a in declared:
                if a not in _LETTER_SET:
                    raise ChartFormatError(f"invalid alphabet letter {a!r}", lineno)
            missing = {a for (_, a, _) in trans} - declared
            if missing:
                raise ChartFormatError(
                    f"letter {min(missing)!r} not in declared alphabet", lineno)
        elif kind == "state":
            if len(parts) != 2:
                raise ChartFormatError("state line takes one name", lineno)
            states.add(parts[1])
        elif kind == "start":
            if len(parts) != 2:
                raise ChartFormatError("start line takes one name", lineno)
            if start is not None:
                raise ChartFormatError("duplicate start line", lineno)
            start, start_line = parts[1], lineno
        elif kind == "out":
            if len(parts) != 3:
                raise ChartFormatError("out line takes: out q vN", lineno)
            _, q, vtok = parts
            if q not in states:
                raise ChartFormatError("out references undeclared state", lineno)
            v = _var_index(vtok)
            if v is None:
                raise ChartFormatError(f"malformed variable token {vtok!r}", lineno)
            outs.add((q, v))
        else:
            raise ChartFormatError(f"unknown directive {kind!r}", lineno)
    if start is None:
        raise ChartFormatError("missing start line", len(text.splitlines()) + 1)
    if start not in states:
        raise ChartFormatError("start references undeclared state", start_line)
    return Chart(Prechart._of(frozenset(states), frozenset(trans), frozenset(outs)), start)


def ref_validate(states, trans, outs):
    """The checks of a Prechart one item at a time: ValueError naming the
    first offender met."""
    for (q, a, r) in trans:
        if q not in states or r not in states:
            raise ValueError(f"transition {(q, a, r)!r} references undeclared state")
        if not _valid_letter(a):
            raise ValueError(f"invalid action letter {a!r}")
    for (q, v) in outs:
        if q not in states:
            raise ValueError(f"output {(q, v)!r} references undeclared state")
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"invalid output variable {v!r}")


def ref_format_chart_text(c: Chart) -> str:
    """format_chart_text as it was first written, sorting each named
    relation by state_key: the oracle of the printer of the numbering."""
    lines = []
    letters = sorted({a for (_, a, _) in c.trans})
    if letters:
        lines.append("alphabet " + " ".join(letters))
    for q in sorted(c.states, key=state_key):
        lines.append(f"state {q}")
    lines.append(f"start {c.start}")
    for (q, a, r) in sorted(c.trans, key=lambda t: (state_key(t[0]), t[1], state_key(t[2]))):
        lines.append(f"trans {q} {a} {r}")
    for (q, v) in sorted(c.outs, key=lambda o: (state_key(o[0]), o[1])):
        lines.append(f"out {q} v{v}")
    return "\n".join(lines) + "\n"


def _ref_dot_quote(s) -> str:
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def ref_chart_to_dot(c: Chart) -> str:
    """chart_to_dot as it was first written, sorting each named relation
    by state_key: the oracle of the printer of the numbering."""
    lines = ["digraph chart {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in sorted(c.states, key=state_key):
        lines.append(f"  {_ref_dot_quote(q)} [shape=circle];")
    lines.append(f"  __start -> {_ref_dot_quote(c.start)};")
    for (q, a, r) in sorted(c.trans, key=lambda t: (state_key(t[0]), t[1], state_key(t[2]))):
        lines.append(f"  {_ref_dot_quote(q)} -> {_ref_dot_quote(r)} [label={_ref_dot_quote(a)}];")
    for v in sorted({v for (_, v) in c.outs}):
        lines.append(f'  "__v{v}" [shape=plaintext, label="v{v}"];')
    for (q, v) in sorted(c.outs, key=lambda o: (state_key(o[0]), o[1])):
        lines.append(f'  {_ref_dot_quote(q)} -> "__v{v}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def numbered_refinement(p: Prechart):
    """The states of p in state_key order, and a chartdist Refinement of p
    in which state i is the list's i-th, so that its class ids, numbered
    first-seen in number order, are numbered first-seen in state_key
    order."""
    states = sorted(p.states, key=state_key)
    number = {q: i for i, q in enumerate(states)}
    tmap, omap = p.transition_map(), p.output_map()
    return states, Refinement([[(a, number[r]) for a, r in tmap[q]] for q in states],
                              [frozenset(omap[q]) for q in states])


class RefRefinement:
    """Stratified partition refinement over the state names themselves,
    re-signing every state in every round: the reference for
    chartdist.Refinement, with the same split-tree history."""

    def __init__(self, p: Prechart):
        self.order = sorted(p.states, key=state_key)
        omap = p.output_map()
        self._outs = {q: frozenset(omap[q]) for q in self.order}
        self._succ = p.transition_map()
        self._block = dict.fromkeys(self.order, 0)
        self._parent = [None]
        self._split_at = [math.inf]
        self._count = 1 if self.order else 0
        self.rounds = 0
        self.stable = False
        self._classes = None

    def _advance(self):
        block = self._block
        parts: dict = {}
        for q in self.order:
            sig = (block[q], self._outs[q],
                   frozenset((a, block[r]) for (a, r) in self._succ[q]))
            parts.setdefault(sig, []).append(q)
        if len(parts) == self._count:
            self.stable = True
            return
        self.rounds += 1
        self._count = len(parts)
        by_block: dict = {}
        for (b, _, _), members in parts.items():
            by_block.setdefault(b, []).append(members)
        for b, split in by_block.items():
            if len(split) == 1:
                continue
            self._split_at[b] = self.rounds
            for members in split:
                child = len(self._parent)
                self._parent.append(b)
                self._split_at.append(math.inf)
                for q in members:
                    block[q] = child

    def level(self, x, y):
        block = self._block
        while block[x] == block[y]:
            if self.stable:
                return math.inf
            self._advance()
        a, b = block[x], block[y]
        while a != b:
            if a > b:
                a = self._parent[a]
            else:
                b = self._parent[b]
        return self._split_at[a] - 1

    def least_level(self, pairs):
        return min((self.level(x, y) for x, y in pairs), default=math.inf)

    def classes(self) -> dict:
        if self._classes is None:
            while not self.stable:
                self._advance()
            fresh: dict = {}
            self._classes = {q: fresh.setdefault(self._block[q], len(fresh))
                             for q in self.order}
        return self._classes

    def max_level(self) -> int:
        self.classes()
        return max(self.rounds - 1, 0)


def python(script, *argv):
    """Run script in a fresh interpreter that imports chartdist from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def malformed_charts():
    """The rows of corpus/malformed_charts.json: a chart text that breaks
    one rule of the format, the --alphabet it is read under (or None),
    and the message and line number of its ChartFormatError."""
    path = Path(__file__).resolve().parent.parent / "corpus" / "malformed_charts.json"
    return json.loads(path.read_text())


def malformed_expressions():
    """The rows of corpus/malformed_expressions.json: an expression text
    that reaches one error site of parse_expr, the --alphabet it is read
    under (or None), the message and position of its ExprSyntaxError, and
    the exit code and stderr of dist on it."""
    path = Path(__file__).resolve().parent.parent / "corpus" / "malformed_expressions.json"
    return json.loads(path.read_text())


def malformed_diagrams():
    """The rows of corpus/malformed_diagrams.json: two diagram texts, the
    --alphabet and --max-states they are read under (or None), and the
    exit code and stderr of dist --format diag on them."""
    path = Path(__file__).resolve().parent.parent / "corpus" / "malformed_diagrams.json"
    return json.loads(path.read_text())


def malformed_certificates():
    """The rows of corpus/malformed_certificates.json: a certificate text,
    the two inputs it is checked against and their --format, and the exit
    code and stderr of check on them."""
    path = Path(__file__).resolve().parent.parent / "corpus" / "malformed_certificates.json"
    return json.loads(path.read_text())


_CERT_DATACLASSES = {}  # certificate node class -> its frozen dataclass


def cert_dataclass(value):
    """A certificate, or a value among a node's fields, with each node
    turned into a frozen dataclass of the node's class name and fields:
    the records the nodes' == and hash give the values of."""
    if type(value) is tuple:
        return tuple(cert_dataclass(item) for item in value)
    if not isinstance(value, _Node):
        return value
    cls = type(value)
    if cls not in _CERT_DATACLASSES:
        _CERT_DATACLASSES[cls] = make_dataclass(cls.__name__, cls.__slots__, frozen=True)
    return _CERT_DATACLASSES[cls](*[cert_dataclass(getattr(value, f)) for f in cls.__slots__])


def cycle_text(n, outs_at=(0,)):
    """An n-cycle: a to the next state, b to the one after, v1 at the
    states of outs_at."""
    lines = ["alphabet a b"] + [f"state {q}" for q in range(n)] + ["start 0"]
    for q in range(n):
        lines += [f"trans {q} a {(q + 1) % n}", f"trans {q} b {(q + 2) % n}"]
    return "\n".join(lines + [f"out {q} v1" for q in outs_at]) + "\n"


def chain_text(n):
    """A chain of n states, a to the next one, and no outputs."""
    lines = [f"state {q}" for q in range(n)] + ["start 0"]
    return "\n".join(lines + [f"trans {q} a {q + 1}" for q in range(n - 1)]) + "\n"


def corpus_rows():
    """The (expression, diagram) text pairs of corpus/pairs.txt."""
    path = Path(__file__).resolve().parent.parent / "corpus" / "pairs.txt"
    lines = [l.strip() for l in path.read_text().splitlines()]
    return [tuple(l.split("\t")) for l in lines if l and not l.startswith("#")]


def corpus_diagrams():
    """The diagram column of corpus/pairs.txt, parsed."""
    return [parse_term(d) for _, d in corpus_rows()]


def ref_open_chart(t):
    """open_chart with each leaf's chart built from the reference
    semantics: the payload rows of its regbeh morphism expanded, their
    states sorted by state_key and numbered after the leaf's outputs, and
    an epsilon edge from each state outputting vj to output j.  The
    leaves are joined as open_chart joins them, and closed and numbered
    here: the entries first, then the successors of each state in sorted
    (letter, node) order."""
    typecheck(t)
    moves, eps = [], []  # per node: its transitions (letter, node); its epsilon edges

    def leaf(node):
        m = leaf_morphism(node)
        charts = [expand(row) for row in m.payload.rows]
        width = m.payload.cod
        states = sorted({q for c in charts for q in c.states}, key=state_key)
        base = len(moves)
        number = {q: base + width + i for i, q in enumerate(states)}
        moves.extend([] for _ in range(width + len(states)))
        eps.extend([] for _ in range(width + len(states)))
        for c in charts:
            for q, a, r in c.trans:
                moves[number[q]].append((a, number[r]))
            for q, v in c.outs:
                eps[number[q]].append(base + v - 1)
        (k, l), entries = m.dom_pair, [number[c.start] for c in charts]
        outputs = list(range(base, base + width))
        return entries[:k], entries[k:], outputs[:l], outputs[l:]

    def seq(f, g, _):
        for x, y in zip(f[3], g[0]):
            eps[x].append(y)
        for x, y in zip(g[2], f[1]):
            eps[x].append(y)
        return f[0], g[1], f[2], g[3]

    def tensor(f, g, _):
        return tuple(a + b for a, b in zip(f, g))

    ins, ins_back, outs_back, outs = _fold(t, leaf, seq, tensor)
    variable = {x: j for j, x in enumerate(outs_back + outs, start=1)}
    number, queue = {}, deque()

    def visit(x):
        if x not in number:
            number[x] = len(number)
            queue.append(x)
        return number[x]

    entries = tuple(map(visit, ins + ins_back))
    trans, outputs = set(), set()
    while queue:
        x = queue.popleft()
        closure, todo = {x}, [x]  # the nodes x reaches by epsilon edges
        while todo:
            for z in eps[todo.pop()]:
                if z not in closure:
                    closure.add(z)
                    todo.append(z)
        for a, y in sorted({step for z in closure for step in moves[z]}):
            trans.add((number[x], a, visit(y)))
        outputs.update((number[x], variable[z]) for z in closure if z in variable)
    return OpenChart(Prechart(frozenset(number.values()), frozenset(trans),
                              frozenset(outputs)), entries)


def brute_close(moves, eps, entries, outputs, max_states, offset=0):
    """diagram._close by a walk of each state's epsilon closure from
    scratch: the same states, numbered breadth-first from offset, the same
    sorted successors and output sets, and the same budget error."""
    variable = {x: j for j, x in enumerate(outputs, start=1)}
    number = {}
    order = []

    def state(x):
        if x not in number:
            if len(order) >= max_states:
                raise ExpansionBudgetError(f"open chart exceeded {max_states} states")
            number[x] = offset + len(order)
            order.append(x)
        return number[x]

    entry_states = tuple(state(x) for x in entries)
    succ, outs = [], []
    for x in order:  # grows while it is walked
        seen, todo = {x}, [x]
        steps, variables = set(), set()
        while todo:
            y = todo.pop()
            steps.update(moves[y])
            if y in variable:
                variables.add(variable[y])
            for z in eps[y]:
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
        succ.append([(a, state(y)) for a, y in sorted(steps)])
        outs.append(frozenset(variables))
    return succ, outs, entry_states


def wide_tensor_text(n):
    """act(a) * ... * act(a), n factors."""
    return " * ".join(["act(a)"] * n)


def fan_in_text(n, k):
    """A left comb of n act(a) joined by merge, then k times ; id(>), then
    ; act(b): n states that reach one k-long run of epsilon edges."""
    text = "act(a)"
    for _ in range(n - 1):
        text = f"({text}) * act(a) ; merge"
    return text + " ; id(>)" * k + " ; act(b)"


def nest_text(n):
    """mu v1.mu v2. ... mu vn.a.(v1+vn+0): n distinct binders, of which the
    one prefix names the outermost and the innermost."""
    return "".join(f"mu v{i}." for i in range(1, n + 1)) + f"a.(v1+v{n}+0)"


def copy_tree_text(n):
    """n act(a) merged into one wire, then n times ; copy ; id(>) * del,
    then ; act(b): n states that reach one n-deep chain of copy nodes."""
    text = "act(a)"
    for _ in range(n - 1):
        text = f"({text}) * act(a) ; merge"
    return text + " ; copy ; id(>) * del" * n + " ; act(b)"


def ref_zip_merge(n):
    """zip_merge by its recursive definition."""
    if n <= 1:
        return Merge() if n else Id("")
    shuffle = _tensor_fold([Id(">"), Sym(">" * (n - 1), ">"), Id(">" * (n - 1))])
    return Seq(shuffle, Tensor(Merge(), ref_zip_merge(n - 1)))


def ref_from_expression(e, n):
    """from_expression by structural recursion on the reference core's
    alpha-normal form of e, an Expr or its text, moving each binder to
    its wire by named substitution (shallow expressions only)."""
    text = e if isinstance(e, str) else format_expr(e)
    return _ref_compile(ref_alpha_normal(ref_parse(text)), n)


def _ref_compile(e, n):
    if isinstance(e, RVar):
        return _tensor_fold([Gen()] * (e.index - 1) + [Id(">")] + [Gen()] * (n - e.index))
    if isinstance(e, RZero):
        return Del() if n == 0 else Seq(Del(), _tensor_fold([Gen()] * n))
    if isinstance(e, RPrefix):
        return Seq(Act(e.letter), _ref_compile(e.body, n))
    if isinstance(e, RSum):
        branches = Tensor(_ref_compile(e.left, n), _ref_compile(e.right, n))
        return Seq(Seq(Copy(), branches), ref_zip_merge(n))
    body = e.body if e.binder == n + 1 else ref_subst(e.body, {e.binder: RVar(n + 1)})
    return loop1(Seq(Merge(), _ref_compile(body, n + 1)))


# ---------------------------------------------------------------------------
# reference diagram parser: (name, word, character) tuple tokens and a
# fresh object per leaf (reference for parse_term)

_REF_TOKEN = re.compile(r"\s*(?:([^\W\d_]+)|([<>]+)|(\S))")
_REF_END = ("", "", "")
_REF_KEYWORDS = {"copy": Copy, "del": Del, "merge": Merge, "gen": Gen, "cap": Cap,
                 "cup": Cup}


def _ref_error(message, text, i, shift=0):
    starts = [m.start(m.lastindex)
              for m in _REF_TOKEN.finditer(text, 0, len(text.rstrip()))]
    return DiagramSyntaxError(message, (starts + [len(text)])[i] + shift)


def _ref_expect(text, tokens, i, ch):
    if tokens[i][2] != ch:
        raise _ref_error(f"expected {ch!r}", text, i)
    return i + 1


def _ref_leaf(text, tokens, i, alphabet):
    name = tokens[i][0]
    if name in _REF_KEYWORDS:
        return _REF_KEYWORDS[name](), i + 1
    if not name:
        raise _ref_error("expected a term", text, i)
    if name not in ("act", "id", "sym"):
        raise _ref_error(f"unknown term {name!r}", text, i, len(name))
    i = _ref_expect(text, tokens, i + 1, "(")
    if name == "act":
        letter = tokens[i][0]
        if not letter:
            raise _ref_error("expected a term", text, i)
        if not _valid_letter(letter):
            raise _ref_error(f"invalid action letter {letter!r}", text, i, len(letter))
        if alphabet is not None and letter not in alphabet:
            raise _ref_error(f"undeclared letter {letter!r}", text, i)
        return Act(letter), _ref_expect(text, tokens, i + 1, ")")
    left = tokens[i][1]
    i += bool(left)
    if name == "id":
        return Id(left), _ref_expect(text, tokens, i, ")")
    i = _ref_expect(text, tokens, i, ",")
    right = tokens[i][1]
    return Sym(left, right), _ref_expect(text, tokens, i + bool(right), ")")


def ref_parse_term(text, alphabet=None):
    """parse_term with a 3-tuple per token and a new object per leaf."""
    tokens = _REF_TOKEN.findall(text, 0, len(text.rstrip())) + [_REF_END]
    i = 0
    opened = []
    sequence = tensor = None
    while True:
        if tokens[i][2] == "(":
            opened.append((sequence, tensor))
            sequence = tensor = None
            i += 1
            continue
        atom, i = _ref_leaf(text, tokens, i, alphabet)
        while True:
            tensor = atom if tensor is None else Tensor(tensor, atom)
            ch = tokens[i][2]
            if ch == "*":
                break
            sequence = tensor if sequence is None else Seq(sequence, tensor)
            tensor = None
            if ch == ";":
                break
            if not opened:
                if tokens[i] is not _REF_END:
                    raise _ref_error("trailing input", text, i)
                return sequence
            if ch != ")":
                raise _ref_error("expected ')'", text, i)
            atom = sequence
            sequence, tensor = opened.pop()
            i += 1
        i += 1


# ---------------------------------------------------------------------------
# reference expression core: plain frozen-dataclass trees, compared
# structurally and walked by recursion (reference for expr.expand)

@dataclass(frozen=True)
class RZero:
    pass


@dataclass(frozen=True)
class RVar:
    index: int


@dataclass(frozen=True)
class RPrefix:
    letter: str
    body: object


@dataclass(frozen=True)
class RSum:
    left: object
    right: object


@dataclass(frozen=True)
class RMu:
    binder: int
    body: object


def ref_free_vars(e):
    if isinstance(e, RZero):
        return frozenset()
    if isinstance(e, RVar):
        return frozenset({e.index})
    if isinstance(e, RPrefix):
        return ref_free_vars(e.body)
    if isinstance(e, RSum):
        return ref_free_vars(e.left) | ref_free_vars(e.right)
    return ref_free_vars(e.body) - {e.binder}


def ref_alpha_normal(e):
    base = max(ref_free_vars(e), default=0)

    def rec(t, depth, env):
        if isinstance(t, RZero):
            return t
        if isinstance(t, RVar):
            return RVar(env.get(t.index, t.index))
        if isinstance(t, RPrefix):
            return RPrefix(t.letter, rec(t.body, depth, env))
        if isinstance(t, RSum):
            return RSum(rec(t.left, depth, env), rec(t.right, depth, env))
        new = base + depth + 1
        return RMu(new, rec(t.body, depth + 1, {**env, t.binder: new}))

    return rec(e, 0, {})


def ref_subst(e, smap):
    if isinstance(e, RZero):
        return e
    if isinstance(e, RVar):
        return smap.get(e.index, e)
    if isinstance(e, RPrefix):
        return RPrefix(e.letter, ref_subst(e.body, smap))
    if isinstance(e, RSum):
        return RSum(ref_subst(e.left, smap), ref_subst(e.right, smap))
    w = e.binder
    inner = {v: g for (v, g) in smap.items() if v != w}
    if not inner:
        return e
    if all(w not in ref_free_vars(g) for g in inner.values()):
        return RMu(w, ref_subst(e.body, inner))
    avoid = set(inner)
    for g in inner.values():
        avoid |= ref_free_vars(g)
    avoid |= ref_free_vars(e.body)
    z = 1
    while z in avoid:
        z += 1
    return RMu(z, ref_subst(ref_subst(e.body, {w: RVar(z)}), inner))


def ref_step(e):
    """(transitions, outputs) of the one-step semantics."""
    if isinstance(e, RZero):
        return frozenset(), frozenset()
    if isinstance(e, RVar):
        return frozenset(), frozenset({e.index})
    if isinstance(e, RPrefix):
        return frozenset({(e.letter, e.body)}), frozenset()
    if isinstance(e, RSum):
        (t1, o1), (t2, o2) = ref_step(e.left), ref_step(e.right)
        return t1 | t2, o1 | o2
    trans, outs = ref_step(e.body)
    return (frozenset((a, ref_subst(t, {e.binder: e})) for (a, t) in trans),
            outs - {e.binder})


def _ref_open_mu(e):
    if isinstance(e, RMu):
        return True
    if isinstance(e, RPrefix):
        return _ref_open_mu(e.body)
    if isinstance(e, RSum):
        return _ref_open_mu(e.right)
    return False


def ref_format(e):
    if isinstance(e, RZero):
        return "0"
    if isinstance(e, RVar):
        return f"v{e.index}"
    if isinstance(e, RPrefix):
        body = ref_format(e.body)
        return f"{e.letter}.({body})" if isinstance(e.body, RSum) else f"{e.letter}.{body}"
    if isinstance(e, RMu):
        return f"mu v{e.binder}.{ref_format(e.body)}"
    left, right = ref_format(e.left), ref_format(e.right)
    if _ref_open_mu(e.left):
        left = f"({left})"
    if isinstance(e.right, RSum):
        right = f"({right})"
    return f"{left}+{right}"


def ref_parse(text):
    """Recursive descent over the expression grammar of README."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        if text[pos:pos + 1] != ch:
            raise ValueError(f"expected {ch!r} at {pos}")
        pos += 1

    def var_token():
        nonlocal pos
        skip_ws()
        expect("v")
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        return int(text[start:pos])

    def summands():
        nonlocal pos
        e = term()
        while True:
            skip_ws()
            if text[pos:pos + 1] != "+":
                return e
            pos += 1
            e = RSum(e, term())

    def term():
        nonlocal pos
        skip_ws()
        ch = text[pos:pos + 1]
        if text.startswith("mu", pos) and text[pos + 2:pos + 3] != ".":
            pos += 2
            binder = var_token()
            skip_ws()
            expect(".")
            return RMu(binder, summands())
        pos += 1
        if ch == "0":
            return RZero()
        if ch == "(":
            e = summands()
            skip_ws()
            expect(")")
            return e
        if ch == "v":
            pos -= 1
            return RVar(var_token())
        if ch not in _LETTERS:
            raise ValueError(f"unexpected {ch!r} at {pos - 1}")
        skip_ws()
        expect(".")
        return RPrefix(ch, term())

    e = summands()
    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing input at {pos}")
    return e


def ref_expand(text, max_states=10000):
    """Chart of the reachable derivatives of expression text, states named
    by canonical text: parse, alpha_normal, format_expr and expand."""
    start = ref_alpha_normal(ref_parse(text))
    start_key = ref_format(start)
    states = {start_key: start}
    trans, outs = set(), set()
    queue = deque([start_key])
    while queue:
        key = queue.popleft()
        sr_trans, sr_outs = ref_step(states[key])
        outs |= {(key, v) for v in sr_outs}
        targets = {}
        for (a, t) in sr_trans:
            nt = ref_alpha_normal(t)
            targets[(a, ref_format(nt))] = nt
        for (a, tkey) in sorted(targets):
            trans.add((key, a, tkey))
            if tkey not in states:
                if len(states) >= max_states:
                    raise RuntimeError(f"expansion exceeded {max_states} states")
                states[tkey] = targets[(a, tkey)]
                queue.append(tkey)
    return Chart(Prechart(frozenset(states), frozenset(trans), frozenset(outs)), start_key)


# ---------------------------------------------------------------------------
# perturbations (used to get pairs at small nonzero distances)

def flip_one_act(rng, t):
    """Copy of t with one action letter changed, or None if it has none."""
    from chartdist import Act, Seq, Tensor

    spots = []

    def walk(node, rebuild):
        if isinstance(node, Act):
            spots.append((node, rebuild))
        elif isinstance(node, Seq):
            walk(node.first, lambda c, n=node, r=rebuild: r(Seq(c, n.second)))
            walk(node.second, lambda c, n=node, r=rebuild: r(Seq(n.first, c)))
        elif isinstance(node, Tensor):
            walk(node.left, lambda c, n=node, r=rebuild: r(Tensor(c, n.right)))
            walk(node.right, lambda c, n=node, r=rebuild: r(Tensor(n.left, c)))

    walk(t, lambda c: c)
    if not spots:
        return None
    node, rebuild = rng.choice(spots)
    other = rng.choice([l for l in LETTERS if l != node.letter])
    return rebuild(Act(other))


_SOME_LEAVES = (Copy(), Del(), Merge(), Gen(), Cap(), Cup(), Act("a"), Id(""), Id(">>"),
                Id("<"), Sym(">", "<"))


def mistype_one_seq(rng, t):
    """Copy of t with one operand of a ';' replaced by a leaf whose word on
    the joined side differs, so that this ';' no longer types; None if t
    has no ';'."""
    spots = []  # (the joined word, the replaced operand's side of it, rebuild)

    def walk(node, rebuild):
        if isinstance(node, Seq):
            joined = typecheck(node.first)[1]
            spots.append((joined, 1, lambda c, n=node, r=rebuild: r(Seq(c, n.second))))
            spots.append((joined, 0, lambda c, n=node, r=rebuild: r(Seq(n.first, c))))
            walk(node.first, lambda c, n=node, r=rebuild: r(Seq(c, n.second)))
            walk(node.second, lambda c, n=node, r=rebuild: r(Seq(n.first, c)))
        elif isinstance(node, Tensor):
            walk(node.left, lambda c, n=node, r=rebuild: r(Tensor(c, n.right)))
            walk(node.right, lambda c, n=node, r=rebuild: r(Tensor(n.left, c)))

    walk(t, lambda c: c)
    if not spots:
        return None
    joined, side, rebuild = rng.choice(spots)
    return rebuild(rng.choice([x for x in _SOME_LEAVES if typecheck(x)[side] != joined]))


def perturb_expr(rng, e, maxvar=2):
    """Copy of e with one random subterm replaced by a fresh one."""
    spots = []

    def walk(node, rebuild):
        spots.append(rebuild)
        if isinstance(node, Prefix):
            walk(node.body, lambda c, n=node, r=rebuild: r(Prefix(n.letter, c)))
        elif isinstance(node, Sum):
            walk(node.left, lambda c, n=node, r=rebuild: r(Sum(c, n.right)))
            walk(node.right, lambda c, n=node, r=rebuild: r(Sum(n.left, c)))
        elif isinstance(node, Mu):
            walk(node.body, lambda c, n=node, r=rebuild: r(Mu(n.binder, c)))

    walk(e, lambda c: c)
    rebuild = rng.choice(spots)
    return rebuild(rand_expr(rng, maxvar=maxvar, depth=rng.randint(1, 2)))
