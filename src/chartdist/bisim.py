"""Bisimilarity for charts: witnesses, stratification levels, quotients.

Two states are bisimilar when they output the same variables and every
transition of one can be matched by an equally-labelled transition of
the other into bisimilar states.  The stratified approximants (level 0
relates everything, level n+1 additionally requires output equality and
matching into level n) and the coarsest such relation all come from one
partition refinement, ``Refinement``, which keeps its split history:
the level of a pair is the last round at which it shares a block, and
the distance modules read 2^-level off it.  ``joint_pair`` puts two
inputs of one kind, expressions, charts or diagram terms, into the one
prechart that every two-input query refines, and ``_refine_pair``, the
one refinement step behind all of them, refines it.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

from .chart import MAX_STATES, Chart, Prechart, disjoint_union, state_key, tagged_union

__all__ = [
    "Refinement", "witness_pairs", "joint_prechart", "joint_pair",
    "bisimilar", "stratified_level", "quotient", "coarsest_partition",
]


class Refinement:
    """Stratified partition refinement of a prechart, with its split history.

    Round 0 puts every state in one block.  Round k+1 splits each block
    of round k by the states' outputs and by the round-k blocks their
    transitions reach under each letter, so two states share a round-k
    block exactly when the k-th stratum relates them.  The rounds are
    nested, and the first round that splits nothing leaves the
    bisimilarity partition.

    The history is a split tree: every block is a node, and a block that
    a round splits records that round and becomes the parent of its
    parts.  Two states first differ at the round that split their lowest
    common block, so memory stays linear in the states however many
    rounds run.  Rounds are computed on demand: ``level`` stops as soon
    as its pair has split, while ``classes`` and ``max_level`` run to the
    end.  ``rounds`` counts the rounds so far that split some block.

    The states are numbered once, and blocks, outputs and successors are
    lists indexed by those numbers.  ``order``, the states in state_key
    order, is sorted only when first read.
    """

    def __init__(self, p: Prechart):
        self._index = index = {q: i for i, q in enumerate(p.states)}
        self._states = list(index)  # number -> state
        n = len(index)
        outs = [set() for _ in range(n)]
        for (q, v) in p.outs:
            outs[index[q]].add(v)
        self._outs = [frozenset(o) for o in outs]  # number -> its outputs
        self._succ = [[] for _ in range(n)]  # number -> [(letter, target number)]
        for (q, a, r) in p.trans:
            self._succ[index[q]].append((a, index[r]))
        self._block = [0] * n  # state number -> current block
        # block -> the block it was split from; a parent's id is always
        # smaller than its children's
        self._parent = [None]
        self._split_at = [math.inf]                  # block -> round that split it
        self._count = 1 if n else 0
        self.rounds = 0
        self.stable = False
        self._classes = None

    @cached_property
    def order(self) -> list:
        """The states in state_key order."""
        return sorted(self._states, key=state_key)

    def _advance(self):
        block = self._block
        parts: dict = {}
        for i, (b, o, moves) in enumerate(zip(block, self._outs, self._succ)):
            sig = (b, o, frozenset([(a, block[r]) for a, r in moves]))
            parts.setdefault(sig, []).append(i)
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
                for i in members:
                    block[i] = child

    def level(self, x, y):
        """Last round at which x and y share a block; math.inf if never split."""
        block = self._block
        i, j = self._index[x], self._index[y]
        while block[i] == block[j]:
            if self.stable:
                return math.inf
            self._advance()
        a, b = block[i], block[j]
        while a != b:
            if a > b:
                a = self._parent[a]
            else:
                b = self._parent[b]
        return self._split_at[a] - 1

    def least_level(self, pairs):
        """Least level of the given pairs; math.inf when all are bisimilar."""
        return min((self.level(x, y) for x, y in pairs), default=math.inf)

    def classes(self) -> dict:
        """State -> bisimilarity class id, numbered first-seen in state_key
        order; do not mutate."""
        if self._classes is None:
            while not self.stable:
                self._advance()
            fresh: dict = {}
            block, index = self._block, self._index
            self._classes = {q: fresh.setdefault(block[index[q]], len(fresh))
                             for q in self.order}
        return self._classes

    def max_level(self) -> int:
        """Largest finite level of any pair of states, 0 if there is none."""
        self.classes()
        return max(self.rounds - 1, 0)


def joint_prechart(exprs, max_states=MAX_STATES):
    """One prechart holding the expansions of all given expressions.

    States are canonical expression texts, so expansions overlap
    wherever the behaviours agree syntactically.
    """
    from .expr import expand  # loaded by whoever built the expressions
    states, trans, outs, seeds = set(), set(), set(), []
    for e in exprs:
        c = expand(e, max_states=max_states)
        seeds.append(c.start)
        states |= set(c.states)
        trans |= set(c.trans)
        outs |= set(c.outs)
    return Prechart._of(frozenset(states), frozenset(trans), frozenset(outs)), seeds


def joint_pair(f, g, max_states=MAX_STATES):
    """The joint prechart of two expressions, two charts or two diagram
    terms, and the pair of seed states of each row.  Expressions share
    their canonical state names and have one row; charts (one row) and
    the open charts of diagrams (a row per entry) are tagged "L:" and "R:".
    """
    # an expression or a term exists only once its module is loaded, so
    # the modules are looked up, never loaded, here
    expr, diagram = (sys.modules.get(f"{__package__}.{m}") for m in ("expr", "diagram"))
    if expr and isinstance(f, expr.Expr) and isinstance(g, expr.Expr):
        joint, seeds = joint_prechart([f, g], max_states=max_states)
        return joint, [tuple(seeds)]
    if isinstance(f, Chart) and isinstance(g, Chart):
        joint, x, y = disjoint_union(f, g)
        return joint, [(x, y)]
    if diagram and isinstance(f, diagram.Term) and isinstance(g, diagram.Term):
        o1, o2 = diagram.open_chart_pair(f, g, max_states)
        return (tagged_union(o1.prechart, o2.prechart),
                [(f"L:{x}", f"R:{y}") for x, y in zip(o1.entries, o2.entries)])
    raise TypeError("expected two expressions, two charts or two diagram terms")


def coarsest_partition(p: Prechart) -> tuple:
    """Coarsest bisimulation partition: a tuple of frozenset blocks, in
    first-seen state_key order."""
    blocks: dict = {}
    for q, i in Refinement(p).classes().items():
        blocks.setdefault(i, []).append(q)
    return tuple(frozenset(b) for b in blocks.values())


def witness_pairs(refinement: Refinement, left, right) -> frozenset:
    """Pairs (left[x], right[y]) for the states x of left and y of right
    that share a bisimilarity class of the refinement; left and right map
    states of the refined prechart to the names to report them by."""
    m = refinement.classes()
    by_class: dict = {}
    for y, name in right.items():
        by_class.setdefault(m[y], []).append(name)
    return frozenset((name, other) for x, name in left.items()
                     for other in by_class.get(m[x], ()))


def _refine_pair(f, g, max_states=MAX_STATES):
    """The one refinement step of every two-input query: the joint
    prechart of two inputs of one kind (see joint_pair), the seed pair of
    each row, and one Refinement of the joint, which computes a level
    only when asked for it."""
    joint, rows = joint_pair(f, g, max_states)
    return joint, rows, Refinement(joint)


def bisimilar(c1: Chart, c2: Chart):
    """Decide bisimilarity of two charts' start states.

    Returns (True, witness relation on original state ids) or
    (False, n) where n is the least level at which the starts separate.
    """
    if not (isinstance(c1, Chart) and isinstance(c2, Chart)):
        raise TypeError("expected two charts")
    _, [(s1, s2)], refinement = _refine_pair(c1, c2)
    level = refinement.level(s1, s2)
    if level != math.inf:
        return False, level + 1
    return True, witness_pairs(refinement, {f"L:{q}": q for q in c1.states},
                               {f"R:{q}": q for q in c2.states})


def stratified_level(f, g, max_states=MAX_STATES):
    """Largest n with two inputs of one kind (see joint_pair) related at
    level n in every row; math.inf when bisimilar.

    Level 0 is the total relation; level n+1 requires equal outputs and
    transition matching into level n.
    """
    _, rows, refinement = _refine_pair(f, g, max_states)
    return refinement.least_level(rows)


def quotient(p: Prechart):
    """Prechart of bisimilarity classes; returns (quotient, state -> class id).

    The graph of the returned map is itself a bisimulation, and
    quotienting twice gives an isomorphic result.
    """
    m = dict(Refinement(p).classes())
    states = frozenset(m.values())
    trans = frozenset((m[q], a, m[r]) for (q, a, r) in p.trans)
    outs = frozenset((m[q], v) for (q, v) in p.outs)
    return Prechart._of(states, trans, outs), m
