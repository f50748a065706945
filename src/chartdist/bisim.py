"""Bisimilarity for charts: witnesses, stratification levels, quotients.

Two states are bisimilar when they output the same variables and every
transition of one can be matched by an equally-labelled transition of
the other into bisimilar states.  The stratified approximants (level 0
relates everything, level n+1 additionally requires output equality and
matching into level n) and the coarsest such relation all come from one
partition refinement, ``Refinement``, which keeps its split history
as a tree of blocks, each with its parent and the round it was born in:
the level of a pair is the last round at which it shares a block, and
the distance modules read 2^-level off it.  A round re-signs only the
states whose successors moved in the round before, so a chain or cycle
of n states costs O(n log n) signatures, not O(n^2).  It reads only
state numbers and names none.  ``_refine_pair``, the one refinement
step of every two-input query and of ``axioms --check``, refines the
numbered joint (``chart._Joint``) of two expressions (``Expr`` nodes or
expression text read straight into one table of nameless nodes), charts
(objects or chart text read straight into numbers) or diagrams (diagram
text read straight into open-chart parts, a term printed and read so).
"""

from __future__ import annotations

import math
import sys

from .chart import MAX_STATES, Chart, Prechart, _chart_joint, _numbered, _Side, _side

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

    Round 1 signs every state by its outputs and enabled letters.  After
    that a round signs only the states that can still split: members of
    blocks of two or more states with a successor that moved in the last
    round.  The members of a block that no move touched had equal
    signatures and still have, so they form one part; a touched member
    reaches a block born in the last round, which no untouched one does,
    so it never joins that part.  When a block splits, its largest part
    keeps the block's id and every other part becomes a new block, born
    in that round, whose parent is the block it left.  A state moves only
    into a part at most half the size of the block it leaves, so it moves
    O(log n) times, and each move has its predecessors signed once more.

    The history is this split tree.  Two states first differ at the round
    that took one of them away from their lowest common block, which is
    the earlier birth round of the two branches below that block, so
    memory stays linear in the states however many rounds run.  Rounds
    are computed on demand: ``level`` stops as soon as its pair has
    split, while ``classes`` and ``max_level`` run to the end.  ``rounds``
    counts the rounds so far that split some block, and ``signatures``
    the state signatures built.
    """

    def __init__(self, succ: list, outs: list):
        self._succ, self._outs = succ, outs
        self._block = [0] * len(succ)  # state number -> current block
        # block -> the block it was split from, and the round it was born
        # in; a parent's id is always smaller than its children's
        self._parent = [None]
        self._born = [0]
        self._members = None  # block -> set of its states, from round 1 on
        self._moved = None  # the states that moved in the last round
        self._pred = None  # state -> the states with a move into it, once needed
        self.rounds = 0
        self.signatures = 0
        self.stable = False
        self._classes = None

    def _advance(self):
        if self._moved is None:
            parts: dict = {}
            for i, (o, moves) in enumerate(zip(self._outs, self._succ)):
                parts.setdefault((o, frozenset([a for a, _ in moves])), []).append(i)
            self.signatures += len(self._succ)
            self._members = [None]  # set below to the part that keeps block 0
            splits = [(0, list(parts.values()), 0)] if len(parts) > 1 else []
        else:
            splits = self._touched_splits()
        if not splits:
            self.stable = True
            return
        self.rounds += 1
        block, members, moved = self._block, self._members, []
        for b, split, rest in splits:
            keep = max(split, key=len)
            if rest >= len(keep):  # the untouched members keep the block
                for part in split:
                    members[b].difference_update(part)
            else:
                split = [part for part in split if part is not keep]
                if rest:
                    split.append(members[b].difference(*split, keep))
                members[b] = set(keep)
            for part in split:
                child = len(self._parent)
                self._parent.append(b)
                self._born.append(self.rounds)
                members.append(set(part))
                for i in part:
                    block[i] = child
                moved += part
        self._moved = moved

    def _touched_splits(self) -> list:
        """(block, parts, rest) of each block that the next round splits:
        the parts of its members that a move touched, lists of states, and
        the number of the others, which stay one part."""
        if self._pred is None:
            self._pred = [[] for _ in self._succ]
            for i, moves in enumerate(self._succ):
                for _, j in moves:
                    self._pred[j].append(i)
        block, members, succ = self._block, self._members, self._succ
        parts: dict = {}
        for i in set().union(*[self._pred[j] for j in self._moved]):
            b = block[i]
            if len(members[b]) > 1:
                sig = (b, frozenset([(a, block[j]) for a, j in succ[i]]))
                parts.setdefault(sig, []).append(i)
        by_block: dict = {}
        for (b, _), part in parts.items():
            by_block.setdefault(b, []).append(part)
        splits = []
        for b, split in by_block.items():
            signed = sum(map(len, split))
            self.signatures += signed
            if len(split) > 1 or signed < len(members[b]):
                splits.append((b, split, len(members[b]) - signed))
        return splits

    def level(self, i, j):
        """Last round at which states i and j share a block; math.inf if
        never split."""
        block = self._block
        while block[i] == block[j]:
            if self.stable:
                return math.inf
            self._advance()
        # walk up to the lowest common block, always from the larger id; ids
        # grow with the birth round, so the last block the walk leaves is
        # the earlier born of the two branches below the common block
        a, b = block[i], block[j]
        while a != b:
            if a > b:
                last, a = a, self._parent[a]
            else:
                last, b = b, self._parent[b]
        return self._born[last] - 1

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
    row), given as Exprs or as nodes read from text into one table
    (expr._Read), two charts or two charts read from text (one row) or two
    diagrams, terms or parts read from text (a row per entry)."""
    # an expression, a term or read parts exist only once their module is
    # loaded, so the modules are looked up, never loaded, here
    expr, diagram = (sys.modules.get(f"{__package__}.{m}") for m in ("expr", "diagram"))
    if expr and isinstance(f, expr._Read) and isinstance(g, expr._Read) and f.table is g.table:
        return expr._joint(f.table, [f.node, g.node], max_states)
    if expr and isinstance(f, expr.Expr) and isinstance(g, expr.Expr):
        table = expr._Table()
        return expr._joint(table, [expr._nameless(table, e) for e in (f, g)], max_states)
    if isinstance(f, _Side) and isinstance(g, _Side):
        return _chart_joint(f, g)
    if isinstance(f, Chart) and isinstance(g, Chart):
        return _chart_joint(_side(f), _side(g))
    if diagram and isinstance(f, (diagram.Term, tuple)) and isinstance(g, (diagram.Term, tuple)):
        return diagram._joint(f, g, max_states)
    raise TypeError("expected two expressions, two charts or two diagram terms")


def joint_prechart(exprs, max_states=MAX_STATES):
    """The named view of the expansions of the given expressions: one
    prechart of canonical texts, overlapping wherever the behaviours
    agree syntactically, and their start states."""
    from . import expr  # loaded by whoever built the expressions
    table = expr._Table()
    joint = expr._joint(table, [expr._nameless(table, e) for e in exprs], max_states)
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
    the class ids numbered first-seen in state_key order, as _numbered
    numbers the states.

    The graph of the returned map is itself a bisimulation, and
    quotienting twice gives an isomorphic result.
    """
    index, succ, outs = _numbered(p)
    m = dict(zip(index, Refinement(succ, outs).classes()))
    states = frozenset(m.values())
    trans = frozenset((m[q], a, m[r]) for (q, a, r) in p.trans)
    outs = frozenset((m[q], v) for (q, v) in p.outs)
    return Prechart._of(states, trans, outs), m
