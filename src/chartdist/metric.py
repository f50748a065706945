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
and 0 when they never split.  The command line reads distances off the
refinement (``level_distance``, ``split_table``).

``kleene_solve`` is the reference definition, kept for the tests and
demos: it iterates ``phi`` from the everywhere-1 table.  Bisimilar
states never stabilise under plain iteration (their values halve
forever), hence it first quotients by bisimilarity, iterates on the
quotient, and pulls the result back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bisim import Refinement, quotient, stratified_level
from .chart import Chart, Prechart, state_key
from .expr import Expr, expand

__all__ = [
    "DistTable", "lift_edge", "hausdorff", "phi",
    "bd_kleene", "kleene_solve", "KleeneResult",
    "bd_stratified", "bd_expressions", "MetricIterationError",
    "is_dyadic_or_zero", "level_distance", "split_table",
]

HALF = Fraction(1, 2)
ONE = Fraction(1)
FZERO = Fraction(0)


class MetricIterationError(RuntimeError):
    """The Kleene iteration exceeded its bound; indicates a bug."""


def is_dyadic_or_zero(x: Fraction) -> bool:
    if x == 0:
        return True
    return x.numerator == 1 and (x.denominator & (x.denominator - 1)) == 0


class DistTable:
    """Symmetric table of exact distances over a fixed state set."""

    __slots__ = ("states", "_index", "_values")

    def __init__(self, states, values=None):
        self.states = tuple(sorted(states, key=state_key))
        self._index = {q: i for i, q in enumerate(self.states)}
        n = len(self.states)
        if values is None:
            self._values = [[FZERO] * n for _ in range(n)]
        else:
            self._values = [list(row) for row in values]
            if len(self._values) != n or any(len(r) != n for r in self._values):
                raise ValueError("value matrix shape mismatch")

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
    beta = p.beta()
    out = DistTable(d.states)
    states = out.states
    for i, q1 in enumerate(states):
        for j in range(i + 1, len(states)):
            q2 = states[j]
            value = hausdorff(lambda m1, m2: lift_edge(d.get, m1, m2),
                              beta[q1], beta[q2])
            out.set(q1, q2, value)
    return out


@dataclass
class KleeneResult:
    """Everything the fixpoint iteration produced.

    table is over the original states; quotient_tables holds the
    iterates on the bisimilarity quotient (index 0 is the everywhere-1
    table); stable_index is the first k with iterate k equal to k+1.
    """

    table: DistTable
    quotient: Prechart
    class_of: dict
    quotient_tables: list
    stable_index: int

    @property
    def iterations(self) -> int:
        return self.stable_index


def kleene_solve(p: Prechart) -> KleeneResult:
    """Iterate ``phi`` to its least fixpoint.

    The prechart is quotiented by bisimilarity first; on the quotient
    the chain from the everywhere-1 table stabilises within |Q|^2+1
    steps, and the result is pulled back along the quotient map.
    """
    qp, class_of = quotient(p)
    d = DistTable.top(qp.states)
    quotient_tables = [d]
    cap = len(d.states) ** 2 + 1
    for stable in range(cap + 1):
        new = phi(qp, d)
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


def bd_kleene(p: Prechart) -> DistTable:
    """Behavioural distance table for a prechart (least fixpoint)."""
    return kleene_solve(p).table


def level_distance(level) -> Fraction:
    """The distance 2^-level of a stratification level; 0 for math.inf."""
    if level == math.inf:
        return FZERO
    return Fraction(1, 2 ** level)


def split_table(refinement: Refinement) -> DistTable:
    """Full distance table over a refinement's states, read off its levels.

    Equal to ``kleene_solve(p).table`` for the refined prechart p.
    """
    table = DistTable(refinement.order)
    states = table.states
    for i, q1 in enumerate(states):
        for j in range(i + 1, len(states)):
            table.set(q1, states[j], level_distance(refinement.level(q1, states[j])))
    return table


def bd_stratified(c1: Chart, c2: Chart) -> Fraction:
    """Distance between two charts' starts via the stratification level.

    Bisimilar charts are at distance 0; otherwise the distance is 2^-n
    for the largest n at which the starts are still related.
    """
    return level_distance(stratified_level(c1, c2))


def bd_expressions(e1: Expr, e2: Expr, max_states: int = 10000) -> Fraction:
    """Distance between two expressions' expanded charts."""
    return bd_stratified(expand(e1, max_states), expand(e2, max_states))
