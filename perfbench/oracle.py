"""Reference answers computed without the code under test.

Everything here works on plain Python data and imports nothing from
``chartdist``:

* expressions are tuples ``("0",)``, ``("v", i)``, ``("p", letter, body)``,
  ``("s", left, right)`` and ``("mu", i, body)``;
* charts are ``Chart(states, trans, outs, start)`` with ``trans`` a set of
  ``(q, letter, r)`` and ``outs`` a set of ``(q, i)``.

The distance and level oracles are the brute-force ``brute_distance`` and
``brute_level`` of the test suite's ``tests/helpers.py``, copied and
restricted to the state pairs reachable from the start pair by equal
letters.  The definitions only ever look at such pairs, so the restriction
does not change a value; it keeps the oracles affordable on the larger
inputs of the benchmark.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

Chart = namedtuple("Chart", "states trans outs start")
ZERO = Fraction(0)
ONE = Fraction(1)


# --- expression text ------------------------------------------------------


def format_expr(e) -> str:
    """Fully parenthesised text that the chartdist parser reads back."""
    kind = e[0]
    if kind == "0":
        return "0"
    if kind == "v":
        return f"v{e[1]}"
    if kind == "p":
        return f"{e[1]}.{format_expr(e[2])}"
    if kind == "s":
        return f"({format_expr(e[1])}+{format_expr(e[2])})"
    return f"(mu v{e[1]}.{format_expr(e[2])})"


class _ExprReader:
    """Reader for the expression grammar: prefix and mu bind tighter than
    '+', and a mu scope extends as far right as possible."""

    def __init__(self, text):
        self.text = text.replace(" ", "")
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        if self.peek() != ch:
            raise ValueError(f"expected {ch!r} at {self.pos} in {self.text!r}")
        self.pos += 1

    def number(self):
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def sum(self):
        e = self.term()
        while self.peek() == "+":
            self.pos += 1
            e = ("s", e, self.term())
        return e

    def term(self):
        ch = self.peek()
        if self.text.startswith("mu", self.pos):
            self.pos += 2
            self.eat("v")
            binder = self.number()
            self.eat(".")
            return ("mu", binder, self.sum())
        if ch == "0":
            self.pos += 1
            return ("0",)
        if ch == "(":
            self.pos += 1
            e = self.sum()
            self.eat(")")
            return e
        if ch == "v":
            self.pos += 1
            return ("v", self.number())
        if ch.isalpha():
            self.pos += 1
            self.eat(".")
            return ("p", ch, self.term())
        raise ValueError(f"unexpected {ch!r} at {self.pos} in {self.text!r}")


def read_expr(text):
    r = _ExprReader(text)
    e = r.sum()
    if r.pos != len(r.text):
        raise ValueError(f"trailing input in {text!r}")
    return e


# --- charts ---------------------------------------------------------------


def chart_text(c: Chart) -> str:
    """The line format ``chartdist`` reads with ``--format chart``."""
    lines = ["alphabet a b"]
    lines += [f"state {q}" for q in c.states]
    lines.append(f"start {c.start}")
    lines += [f"trans {q} {a} {r}" for (q, a, r) in sorted(c.trans)]
    lines += [f"out {q} v{v}" for (q, v) in sorted(c.outs)]
    return "\n".join(lines) + "\n"


def read_chart_text(text) -> Chart:
    states, trans, outs, start = [], set(), set(), None
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "alphabet":
            continue
        if parts[0] == "state":
            states.append(parts[1])
        elif parts[0] == "start":
            start = parts[1]
        elif parts[0] == "trans":
            trans.add((parts[1], parts[2], parts[3]))
        elif parts[0] == "out":
            outs.add((parts[1], int(parts[2][1:])))
        else:
            raise ValueError(f"unknown chart line {line!r}")
    if start not in states:
        raise ValueError("chart text without a declared start state")
    return Chart(tuple(states), frozenset(trans), frozenset(outs), start)


def _shift(c: Chart, offset: int) -> Chart:
    return Chart(
        tuple(q + offset for q in c.states),
        {(q + offset, a, r + offset) for (q, a, r) in c.trans},
        {(q + offset, v) for (q, v) in c.outs},
        c.start + offset,
    )


def structural_chart(e) -> Chart:
    """The chart of an expression by the six chart combinators (empty,
    variable, prefix, sum, recursion), restricted to reachable states."""
    return _reachable(_build(e))


def _build(e) -> Chart:
    kind = e[0]
    if kind == "0":
        return Chart((0,), set(), set(), 0)
    if kind == "v":
        return Chart((0,), set(), {(0, e[1])}, 0)
    if kind == "p":
        inner = _shift(_build(e[2]), 1)
        return Chart((0,) + inner.states, inner.trans | {(0, e[1], inner.start)},
                     inner.outs, 0)
    if kind == "s":
        left = _shift(_build(e[1]), 1)
        right = _shift(_build(e[2]), 1 + len(left.states))
        trans = left.trans | right.trans
        outs = left.outs | right.outs
        for side in (left, right):
            trans |= {(0, a, r) for (q, a, r) in side.trans if q == side.start}
            outs |= {(0, v) for (q, v) in side.outs if q == side.start}
        return Chart((0,) + left.states + right.states, trans, outs, 0)
    v = e[1]
    body = _build(e[2])
    start_trans = {(a, r) for (q, a, r) in body.trans if q == body.start}
    start_outs = {w for (q, w) in body.outs if q == body.start}
    trans = set(body.trans)
    outs = set()
    for q in body.states:
        own = {w for (p, w) in body.outs if p == q}
        if v in own:
            trans |= {(q, a, r) for (a, r) in start_trans}
            own |= start_outs
        outs |= {(q, w) for w in own if w != v}
    return Chart(body.states, trans, outs, body.start)


def _reachable(c: Chart) -> Chart:
    succ = {}
    for (q, a, r) in c.trans:
        succ.setdefault(q, []).append(r)
    seen = {c.start}
    stack = [c.start]
    while stack:
        for r in succ.get(stack.pop(), ()):
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return Chart(
        tuple(q for q in c.states if q in seen),
        frozenset(t for t in c.trans if t[0] in seen),
        frozenset(o for o in c.outs if o[0] in seen),
        c.start,
    )


# --- brute-force oracles --------------------------------------------------


def _moves(c: Chart):
    acts = {q: [] for q in c.states}
    outs = {q: set() for q in c.states}
    for (q, a, r) in c.trans:
        acts[q].append((a, r))
    for (q, v) in c.outs:
        outs[q].add(v)
    return acts, {q: frozenset(s) for q, s in outs.items()}


def _pair_closure(acts1, acts2, start):
    """State pairs reachable from start by equal letters on both sides."""
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        for (a, t) in acts1[x]:
            for (b, u) in acts2[y]:
                if a == b and (t, u) not in seen:
                    seen.add((t, u))
                    stack.append((t, u))
    return sorted(seen, key=str)


def _matched(rel, acts1, acts2, x, y):
    fwd = all(any(b == a and (t, u) in rel for (b, u) in acts2[y])
              for (a, t) in acts1[x])
    bwd = all(any(b == a and (t, u) in rel for (a, t) in acts1[x])
              for (b, u) in acts2[y])
    return fwd and bwd


def pair_levels(c1: Chart, c2: Chart):
    """Level of every pair reachable from the start pair: the largest n
    with the two states related at stratification level n (``math.inf``
    for bisimilar pairs).  This is ``brute_level`` run on all pairs at once."""
    acts1, outs1 = _moves(c1)
    acts2, outs2 = _moves(c2)
    pairs = _pair_closure(acts1, acts2, (c1.start, c2.start))
    rel = set(pairs)
    level = {}
    n = 0
    while True:
        nxt = {(x, y) for (x, y) in rel
               if outs1[x] == outs2[y] and _matched(rel, acts1, acts2, x, y)}
        for pr in rel - nxt:
            level[pr] = n
        if nxt == rel:
            for pr in rel:
                level[pr] = math.inf
            return level
        rel = nxt
        n += 1


def brute_level(c1: Chart, c2: Chart):
    """Largest n with the starts related at stratification level n."""
    return pair_levels(c1, c2)[(c1.start, c2.start)]


def brute_distance(c1: Chart, c2: Chart, levels=None) -> Fraction:
    """Least-fixpoint distance between the starts, straight from the
    definition: bisimilar pairs at 0, every other pair starting at 1, then
    the lifted Hausdorff operator on exact Fractions until nothing moves.

    A move is matched at cost 0 by an equal output, at half the distance
    of the targets by a transition with the same letter, and at cost 1
    otherwise; an unmatched move costs 1."""
    if levels is None:
        levels = pair_levels(c1, c2)
    if levels[(c1.start, c2.start)] == math.inf:
        return ZERO  # bisimilar pairs start at 0 and stay there
    acts1, outs1 = _moves(c1)
    acts2, outs2 = _moves(c2)
    pairs = sorted(levels, key=str)
    d = {pr: ZERO if levels[pr] == math.inf else ONE for pr in pairs}

    def directed(acts_x, outs_x, acts_y, outs_y, d, flip):
        worst = ZERO
        for v in outs_x:
            if v not in outs_y:
                return ONE
        for (a, t) in acts_x:
            best = ONE
            for (b, u) in acts_y:
                if a == b:
                    cost = d[(u, t) if flip else (t, u)] / 2
                    if cost < best:
                        best = cost
            if best > worst:
                worst = best
        return worst

    def hausdorff(x, y, d):
        return max(directed(acts1[x], outs1[x], acts2[y], outs2[y], d, False),
                   directed(acts2[y], outs2[y], acts1[x], outs1[x], d, True))

    bound = 4 * len(pairs) ** 2 + 4
    for _ in range(bound):
        nd = {pr: d[pr] if levels[pr] == math.inf else hausdorff(*pr, d)
              for pr in pairs}
        if nd == d:
            return d[(c1.start, c2.start)]
        d = nd
    raise AssertionError("oracle iteration failed to stabilise")


def greatest_bisimulation(c1: Chart, c2: Chart):
    """All pairs in Q1 x Q2 that are bisimilar, by naive pair elimination
    (``brute_related_pairs`` on the two charts)."""
    acts1, outs1 = _moves(c1)
    acts2, outs2 = _moves(c2)
    rel = {(x, y) for x in c1.states for y in c2.states if outs1[x] == outs2[y]}
    changed = True
    while changed:
        changed = False
        for pr in sorted(rel, key=str):
            if not _matched(rel, acts1, acts2, *pr):
                rel.discard(pr)
                changed = True
    return rel


def dist_line(level) -> str:
    """What ``chartdist dist`` prints for a pair at a given level."""
    if level == math.inf:
        return "0 (bisimilar)\n"
    return f"{Fraction(1, 2 ** level)} (level {level})\n"
