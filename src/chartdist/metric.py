"""Behavioural distances on charts, computed exactly.

Distances live in [0,1] and are represented as Fractions throughout; no
floating point is used anywhere.  The distance between two states is
the least fixpoint of a Hausdorff-style one-step operator: moves are
compared by an edge lifting (equal moves are at distance 0, equally
labelled transitions at half the distance of their targets, anything
else at distance 1) and move sets by the symmetric sup-inf Hausdorff
lifting with sup over the empty set 0 and inf over the empty set 1.

Every value reachable this way is 0 or a power of two 2^-k: the least
fixpoint is 2^-level, where level is the last round of the stratified
refinement (``bisim.Refinement``) at which two states share a block,
and 0 when they never split (``level_distance``, which lives in
``derive``, so that a certificate query loads no ``metric``).

``kleene_solve`` is the reference definition, kept for the tests and
demos: it iterates ``phi`` from the everywhere-1 table.  Bisimilar
states never stabilise under plain iteration (their values halve
forever), hence it first quotients by bisimilarity, iterates on the
quotient, and pulls the result back.  It builds that quotient itself,
signing every state in every round, so that it shares no code with the
refinement it is the oracle of.
"""

from __future__ import annotations

from fractions import Fraction

from .bisim import stratified_level
from .chart import MAX_STATES, Prechart, _Record, state_key
from .derive import FZERO, ONE, level_distance

__all__ = [
    "DistTable", "lift_edge", "hausdorff", "phi",
    "kleene_solve", "KleeneResult",
    "bd_stratified", "MetricIterationError",
    "is_dyadic_or_zero", "level_distance",
]

HALF = Fraction(1, 2)


class MetricIterationError(RuntimeError):
    """The Kleene iteration exceeded its bound; indicates a bug."""


def is_dyadic_or_zero(x: Fraction) -> bool:
    if x == 0:
        return True
    return x.numerator == 1 and (x.denominator & (x.denominator - 1)) == 0


class DistTable:
    """Symmetric table of exact distances over a fixed state set."""

    __slots__ = ("states", "_index", "_values")

    def __init__(self, states):
        self.states = tuple(sorted(states, key=state_key))
        self._index = {q: i for i, q in enumerate(self.states)}
        self._values = [[FZERO] * len(self.states) for _ in self.states]

    def _zeros(self) -> "DistTable":
        """An all-zero table over the same states, in the same order."""
        t = DistTable.__new__(DistTable)
        t.states, t._index = self.states, self._index
        t._values = [[FZERO] * len(self.states) for _ in self.states]
        return t

    @classmethod
    def top(cls, states) -> "DistTable":
        t = cls(states)
        n = len(t.states)
        t._values = [[FZERO if i == j else ONE for j in range(n)] for i in range(n)]
        return t

    def get(self, q1, q2) -> Fraction:
        return self._values[self._index[q1]][self._index[q2]]

    def set(self, q1, q2, value: Fraction):
        if not (0 <= value <= 1):
            raise ValueError(f"distance out of range: {value}")
        i, j = self._index[q1], self._index[q2]
        self._values[i][j] = value
        self._values[j][i] = value

    def __eq__(self, other):
        return (isinstance(other, DistTable) and self.states == other.states
                and self._values == other._values)

    def __hash__(self):
        raise TypeError("DistTable is unhashable")

    def le(self, other: "DistTable") -> bool:
        """Pointwise order: every entry at most the other's."""
        if self.states != other.states:
            raise ValueError("tables over different state sets")
        return all(a <= b for ra, rb in zip(self._values, other._values)
                   for a, b in zip(ra, rb))

    def is_pseudometric(self) -> bool:
        n = len(self.states)
        v = self._values
        for i in range(n):
            if v[i][i] != 0:
                return False
            for j in range(n):
                if v[i][j] != v[j][i] or not (0 <= v[i][j] <= 1):
                    return False
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if v[i][k] > v[i][j] + v[j][k]:
                        return False
        return True

    def to_tsv(self) -> str:
        head = "\t".join([""] + [str(q) for q in self.states])
        rows = []
        for i, q in enumerate(self.states):
            rows.append("\t".join([str(q)] + [str(x) for x in self._values[i]]))
        return "\n".join([head] + rows) + "\n"


def lift_edge(d, m1, m2) -> Fraction:
    """Edge lifting of a state distance to moves.

    d is a callable on state pairs.  Equally labelled transitions cost
    half the target distance, identical moves cost 0, all else 1.
    """
    if m1 == m2:
        return FZERO
    if m1[0] == "act" and m2[0] == "act" and m1[1] == m2[1]:
        return HALF * d(m1[2], m2[2])
    return ONE


def hausdorff(cost, set1, set2) -> Fraction:
    """Symmetric Hausdorff lifting of a move cost to move sets.

    sup over the empty set is 0 and inf over the empty set is 1, so two
    empty sets are at distance 0 and an empty set is at distance 1 from
    any non-empty one.
    """
    def directed(a_set, b_set):
        worst = FZERO
        for m1 in a_set:
            best = ONE
            for m2 in b_set:
                c = cost(m1, m2)
                if c < best:
                    best = c
                    if best == 0:
                        break
            if best > worst:
                worst = best
        return worst

    return max(directed(set1, set2), directed(set2, set1))


def phi(p: Prechart, d: DistTable) -> DistTable:
    """One step of the distance operator on a full table."""
    return _phi(p.beta(), d)


def _phi(beta: dict, d: DistTable) -> DistTable:
    """phi given the move map of the prechart; the result keeps d's order."""
    out = d._zeros()
    states = out.states

    def cost(m1, m2):
        return lift_edge(d.get, m1, m2)

    for i, q1 in enumerate(states):
        for j in range(i + 1, len(states)):
            q2 = states[j]
            out.set(q1, q2, hausdorff(cost, beta[q1], beta[q2]))
    return out


class KleeneResult(_Record):
    """Everything the fixpoint iteration produced.

    table is over the original states; quotient_tables holds the
    iterates on the bisimilarity quotient (index 0 is the everywhere-1
    table); stable_index is the first k with iterate k equal to k+1.
    Unlike the other records its fields can be assigned, it has no hash,
    and a copy of it is a new result with its fields copied.
    """

    __slots__ = ("table", "quotient", "class_of", "quotient_tables", "stable_index")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = __copy__ = __deepcopy__ = None

    def __init__(self, table: DistTable, quotient: Prechart, class_of: dict,
                 quotient_tables: list, stable_index: int):
        self.table = table
        self.quotient = quotient
        self.class_of = class_of
        self.quotient_tables = quotient_tables
        self.stable_index = stable_index

    @property
    def iterations(self) -> int:
        return self.stable_index


def kleene_solve(p: Prechart) -> KleeneResult:
    """Iterate ``phi`` to its least fixpoint.

    The prechart is quotiented by bisimilarity first; on the quotient
    the chain from the everywhere-1 table stabilises within |Q|^2+1
    steps, and the result is pulled back along the quotient map.
    """
    qp, class_of = _quotient(p)
    beta = qp.beta()
    d = DistTable.top(qp.states)
    quotient_tables = [d]
    cap = len(d.states) ** 2 + 1
    for stable in range(cap + 1):
        new = _phi(beta, d)
        if new == d:
            break
        quotient_tables.append(new)
        d = new
    else:
        raise MetricIterationError(
            f"no fixpoint within {cap} iterations on {len(d.states)} classes")
    full = DistTable(p.states)
    for i, q1 in enumerate(full.states):
        for j in range(i + 1, len(full.states)):
            q2 = full.states[j]
            full.set(q1, q2, d.get(class_of[q1], class_of[q2]))
    return KleeneResult(full, qp, class_of, quotient_tables, stable)


def _quotient(p: Prechart):
    """The bisimilarity quotient of p and the map from each state to its
    class id, as bisim.quotient gives them, but by naive refinement: each
    round signs every state by its block, its outputs and the blocks its
    moves reach, until no block splits.  The ids are numbered first-seen
    in state_key order."""
    beta, order = p.beta(), sorted(p.states, key=state_key)
    m, count = dict.fromkeys(order, 0), min(len(order), 1)
    while True:
        fresh, signed = {}, {}
        for q in order:
            moves = frozenset([(x[0], x[1], m[x[2]]) if x[0] == "act" else x for x in beta[q]])
            signed[q] = fresh.setdefault((m[q], moves), len(fresh))
        m = signed
        if len(fresh) == count:
            break
        count = len(fresh)
    return Prechart._of(frozenset(m.values()),
                        frozenset((m[q], a, m[r]) for (q, a, r) in p.trans),
                        frozenset((m[q], v) for (q, v) in p.outs)), m


def bd_stratified(f, g, max_states=MAX_STATES) -> Fraction:
    """Distance between two inputs of one kind (see bisim.joint_pair) via
    the stratification level: 0 when bisimilar, otherwise 2^-n for the
    largest n at which every row is still related.
    """
    return level_distance(stratified_level(f, g, max_states))
