"""Bisimilarity for charts: witnesses, stratification levels, quotients.

Two states are bisimilar when they output the same variables and every
transition of one can be matched by an equally-labelled transition of
the other into bisimilar states.  The stratified approximants (level 0
relates everything, level n+1 additionally requires output equality and
matching into level n) and the coarsest such relation all come from one
partition refinement, ``Refinement``, which keeps its split history:
the level of a pair is the last round at which it shares a block, and
the distance modules read 2^-level off it; it reads only state numbers
and names none.  ``_refine_pair``, the one refinement step of every
two-input query and of ``axioms --check``, refines the numbered joint
(``chart._Joint``) of two expressions, charts or diagram terms.
"""

from __future__ import annotations

import math
import sys

from .chart import MAX_STATES, Chart, Prechart, _chart_joint, _numbered, state_key

__all__ = [
    "Refinement", "witness_pairs", "joint_prechart", "joint_pair",
    "bisimilar", "stratified_level", "quotient", "coarsest_partition",
]


class Refinement:
    """Stratified partition refinement of numbered states, with its split
    history.

    State i, for i below n = len(succ), has the transitions (letter, j)
    of succ[i] and the output set outs[i].  Round 0 puts every state in
    one block.  Round k+1 splits each block of round k by the states'
    outputs and by the round-k blocks their transitions reach under each
    letter, so two states share a round-k block exactly when the k-th
    stratum relates them.  The rounds are nested, and the first round
    that splits nothing leaves the bisimilarity partition.

    The history is a split tree: every block is a node, and a block that
    a round splits records that round and becomes the parent of its
    parts.  Two states first differ at the round that split their lowest
    common block, so memory stays linear in the states however many
    rounds run.  Rounds are computed on demand: ``level`` stops as soon
    as its pair has split, while ``classes`` and ``max_level`` run to the
    end.  ``rounds`` counts the rounds so far that split some block.
    """

    def __init__(self, succ: list, outs: list):
        self._succ, self._outs = succ, outs
        n = len(succ)
        self._block = [0] * n  # state number -> current block
        # block -> the block it was split from; a parent's id is always
        # smaller than its children's
        self._parent = [None]
        self._split_at = [math.inf]                  # block -> round that split it
        self._count = 1 if n else 0
        self.rounds = 0
        self.stable = False
        self._classes = None

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

    def level(self, i, j):
        """Last round at which states i and j share a block; math.inf if
        never split."""
        block = self._block
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

    def classes(self) -> list:
        """Number -> bisimilarity class id, the ids numbered first-seen in
        number order; do not mutate."""
        if self._classes is None:
            while not self.stable:
                self._advance()
            fresh: dict = {}
            self._classes = [fresh.setdefault(b, len(fresh)) for b in self._block]
        return self._classes

    def max_level(self) -> int:
        """Largest finite level of any pair of states, 0 if there is none."""
        while not self.stable:
            self._advance()
        return max(self.rounds - 1, 0)


def _joint(f, g, max_states=MAX_STATES):
    """The joint of two expressions (their expansions sharing states, one
    row), two charts (one row) or two diagrams (a row per entry)."""
    # an expression or a term exists only once its module is loaded, so
    # the modules are looked up, never loaded, here
    expr, diagram = (sys.modules.get(f"{__package__}.{m}") for m in ("expr", "diagram"))
    if expr and isinstance(f, expr.Expr) and isinstance(g, expr.Expr):
        return expr._joint([f, g], max_states)
    if isinstance(f, Chart) and isinstance(g, Chart):
        return _chart_joint(f, g)
    if diagram and isinstance(f, diagram.Term) and isinstance(g, diagram.Term):
        return diagram._joint(f, g, max_states)
    raise TypeError("expected two expressions, two charts or two diagram terms")


def joint_prechart(exprs, max_states=MAX_STATES):
    """The named view of the expansions of the given expressions: one
    prechart of canonical texts, overlapping wherever the behaviours
    agree syntactically, and their start states."""
    from .expr import _joint as expr_joint  # loaded by whoever built the expressions
    joint = expr_joint(exprs, max_states)
    return joint.prechart(), [joint.name(s) for s in joint.rows[0]]


def joint_pair(f, g, max_states=MAX_STATES):
    """The named view of the joint of two inputs of one kind: its prechart
    and the pair of seed names of each row.  Expression states are named
    by their canonical texts, chart and open-chart states tagged "L:" and
    "R:"."""
    joint = _joint(f, g, max_states)
    return joint.prechart(), [(joint.name(x), joint.name(y)) for x, y in joint.rows]


def coarsest_partition(p: Prechart) -> tuple:
    """Coarsest bisimulation partition: a tuple of frozenset blocks, in
    first-seen state_key order."""
    m = quotient(p)[1]
    blocks = [[] for _ in set(m.values())]
    for q, c in m.items():  # class ids are numbered first-seen in state_key order
        blocks[c].append(q)
    return tuple(map(frozenset, blocks))


def witness_pairs(refinement: Refinement, left, right, name) -> frozenset:
    """Pairs (name(x), name(y)) for the state numbers x of left and y of
    right that share a bisimilarity class of the refinement."""
    m = refinement.classes()
    by_class: dict = {}
    for y in right:
        by_class.setdefault(m[y], []).append(name(y))
    return frozenset((name(x), other) for x in left for other in by_class.get(m[x], ()))


def _refine_pair(f, g, max_states=MAX_STATES):
    """The one refinement step of every two-input query: the joint of two
    inputs of one kind, and one Refinement of it, which computes a level
    only when asked for it."""
    joint = _joint(f, g, max_states)
    return joint, Refinement(joint.succ, joint.outs)


def bisimilar(c1: Chart, c2: Chart):
    """Decide bisimilarity of two charts' start states.

    Returns (True, witness relation on original state ids) or
    (False, n) where n is the least level at which the starts separate.
    """
    if not (isinstance(c1, Chart) and isinstance(c2, Chart)):
        raise TypeError("expected two charts")
    joint, refinement = _refine_pair(c1, c2)
    (s1, s2), = joint.rows
    level = refinement.level(s1, s2)
    if level != math.inf:
        return False, level + 1
    return True, witness_pairs(refinement, range(joint.split),
                               range(joint.split, len(joint.succ)), joint.local)


def stratified_level(f, g, max_states=MAX_STATES):
    """Largest n with two inputs of one kind (see joint_pair) related at
    level n in every row; math.inf when bisimilar.

    Level 0 is the total relation; level n+1 requires equal outputs and
    transition matching into level n.
    """
    joint, refinement = _refine_pair(f, g, max_states)
    return refinement.least_level(joint.rows)


def quotient(p: Prechart):
    """Prechart of bisimilarity classes; returns (quotient, state -> class id),
    the class ids numbered first-seen in state_key order.

    The graph of the returned map is itself a bisimulation, and
    quotienting twice gives an isomorphic result.
    """
    index, succ, outs = _numbered(p)
    classes, fresh = Refinement(succ, outs).classes(), {}
    m = {q: fresh.setdefault(classes[index[q]], len(fresh)) for q in sorted(index, key=state_key)}
    states = frozenset(m.values())
    trans = frozenset((m[q], a, m[r]) for (q, a, r) in p.trans)
    outs = frozenset((m[q], v) for (q, v) in p.outs)
    return Prechart._of(states, trans, outs), m
