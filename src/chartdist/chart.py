"""Charts: finite transition systems with variable outputs.

A prechart is a finite set of states with labelled transitions and a
set of output variables attached to each state.  A chart additionally
fixes a start state.  The six combinators below build charts
compositionally: the empty behaviour, a single output variable, action
prefixing, binary sum, simultaneous substitution of charts for
variables, and recursion (loop the start back into every state that
outputs the recursion variable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "Prechart", "Chart", "ChartFormatError",
    "empty_chart", "variable_chart", "prefix_chart", "sum_chart",
    "subst_chart", "rec_chart", "reachable", "live_vars",
    "disjoint_union", "tagged_union", "parse_chart_text", "format_chart_text",
    "chart_to_dot",
    "state_key", "move_key",
]

_LETTERS = "abcdefghijklmnopqrstuwxyz"  # single lowercase; 'v' is reserved
_LETTER_SET = frozenset(_LETTERS)
MAX_STATES = 10000  # default state budget of expansions and open charts


def state_key(q):
    """Deterministic sort key for state identifiers (ints or strings)."""
    if isinstance(q, bool):  # bool is an int subclass; forbid quietly via repr
        return (1, 0, repr(q))
    if isinstance(q, int):
        return (0, q, "")
    return (1, 0, str(q))


def move_key(m):
    """Deterministic sort key for beta-moves."""
    if m[0] == "act":
        return (0, m[1], state_key(m[2]))
    return (1, "", (0, m[1], ""))


def _valid_letter(a) -> bool:
    return isinstance(a, str) and len(a) == 1 and a in _LETTERS


@dataclass(frozen=True)
class Prechart:
    """States plus transition and output relations (no start state)."""

    states: frozenset
    trans: frozenset  # triples (state, letter, state)
    outs: frozenset   # pairs (state, variable index)

    def __post_init__(self):
        if not self._valid_in_bulk():
            self._validate_each()

    def _valid_in_bulk(self) -> bool:
        """Whether every check of _validate_each passes, tested a column at
        a time by set operations.  False also when a relation is no
        collection of tuples of its arity, so that _validate_each reports
        the first offender as it always has."""
        states, trans, outs = self.states, self.trans, self.outs
        try:
            if trans:
                qs, letters, rs = zip(*trans, strict=True)
                if not (states.issuperset(qs) and states.issuperset(rs)
                        and _LETTER_SET.issuperset(letters)
                        and set(map(type, letters)) == {str}):
                    return False
            if outs:
                qs, vs = zip(*outs, strict=True)
                if not (states.issuperset(qs) and set(map(type, vs)) == {int}
                        and min(vs) >= 1):
                    return False
        except (AttributeError, TypeError, ValueError):
            return False
        return True

    def _validate_each(self):
        for (q, a, r) in self.trans:
            if q not in self.states or r not in self.states:
                raise ValueError(f"transition {(q, a, r)!r} references undeclared state")
            if not _valid_letter(a):
                raise ValueError(f"invalid action letter {a!r}")
        for (q, v) in self.outs:
            if q not in self.states:
                raise ValueError(f"output {(q, v)!r} references undeclared state")
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"invalid output variable {v!r}")

    def letters(self) -> frozenset:
        return frozenset(a for (_, a, _) in self.trans)

    def variables(self) -> frozenset:
        return frozenset(v for (_, v) in self.outs)

    def transition_map(self) -> dict:
        m = {q: set() for q in self.states}
        for (q, a, r) in self.trans:
            m[q].add((a, r))
        return m

    def output_map(self) -> dict:
        m = {q: set() for q in self.states}
        for (q, v) in self.outs:
            m[q].add(v)
        return m

    def beta(self) -> dict:
        """Move sets: ('act', a, target) for transitions, ('out', v) for outputs."""
        m = {q: set() for q in self.states}
        for (q, a, r) in self.trans:
            m[q].add(("act", a, r))
        for (q, v) in self.outs:
            m[q].add(("out", v))
        return {q: frozenset(ms) for q, ms in m.items()}


@dataclass(frozen=True)
class Chart:
    """A prechart with a designated start state."""

    prechart: Prechart
    start: object

    def __post_init__(self):
        if self.start not in self.prechart.states:
            raise ValueError(f"start state {self.start!r} is not a state")

    @property
    def states(self) -> frozenset:
        return self.prechart.states

    @property
    def trans(self) -> frozenset:
        return self.prechart.trans

    @property
    def outs(self) -> frozenset:
        return self.prechart.outs


def _relabel(c: Chart, offset: int):
    """Relabel states as consecutive ints starting at offset; returns (chart, map)."""
    order = sorted(c.states, key=state_key)
    m = {q: offset + i for i, q in enumerate(order)}
    p = Prechart(
        frozenset(m.values()),
        frozenset((m[q], a, m[r]) for (q, a, r) in c.trans),
        frozenset((m[q], v) for (q, v) in c.outs),
    )
    return Chart(p, m[c.start]), m


def empty_chart() -> Chart:
    return Chart(Prechart(frozenset({0}), frozenset(), frozenset()), 0)


def variable_chart(v: int) -> Chart:
    if not isinstance(v, int) or v < 1:
        raise ValueError(f"invalid variable index {v!r}")
    return Chart(Prechart(frozenset({0}), frozenset(), frozenset({(0, v)})), 0)


def prefix_chart(a: str, c: Chart) -> Chart:
    """New start with a single a-transition into the old start; outputs unchanged."""
    if not _valid_letter(a):
        raise ValueError(f"invalid action letter {a!r}")
    inner, _ = _relabel(c, 1)
    p = Prechart(
        inner.states | {0},
        inner.trans | {(0, a, inner.start)},
        inner.outs,
    )
    return Chart(p, 0)


def sum_chart(c1: Chart, c2: Chart) -> Chart:
    """New start inheriting the union of both starts' transitions and outputs."""
    left, _ = _relabel(c1, 1)
    right, _ = _relabel(c2, 1 + len(left.states))
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
    base, _ = _relabel(c, 0)
    offset = len(base.states)
    inners = []
    for ci in charts:
        ri, _ = _relabel(ci, offset)
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


def reachable(c: Chart) -> Chart:
    """Restrict to the states reachable from the start."""
    tmap = c.prechart.transition_map()
    seen = {c.start}
    stack = [c.start]
    while stack:
        q = stack.pop()
        for (_, r) in tmap[q]:
            if r not in seen:
                seen.add(r)
                stack.append(r)
    p = Prechart(
        frozenset(seen),
        frozenset(t for t in c.trans if t[0] in seen),
        frozenset(o for o in c.outs if o[0] in seen),
    )
    return Chart(p, c.start)


def live_vars(c: Chart) -> frozenset:
    """Variables output by some reachable state."""
    return reachable(c).prechart.variables()


def tagged_union(p1: Prechart, p2: Prechart) -> Prechart:
    """Union of two precharts with their states renamed "L:<q>" and
    "R:<q>", so that the names stay apart and readable.  Two states of
    one side that print alike would merge, so they raise ValueError."""
    l, r = _tags("L", p1.states), _tags("R", p2.states)
    return Prechart(
        frozenset(l.values()) | frozenset(r.values()),
        frozenset([(l[q], a, l[t]) for (q, a, t) in p1.trans]
                  + [(r[q], a, r[t]) for (q, a, t) in p2.trans]),
        frozenset([(l[q], v) for (q, v) in p1.outs] + [(r[q], v) for (q, v) in p2.outs]))


def _tags(side: str, states) -> dict:
    """State -> "<side>:<state>", one name per state."""
    m = {q: f"{side}:{q}" for q in states}
    if len(set(m.values())) != len(m):
        seen: dict = {}
        for q in sorted(states, key=state_key):
            other = seen.setdefault(m[q], q)
            if other is not q:
                raise ValueError(f"states {other!r} and {q!r} print alike")
    return m


def disjoint_union(c1: Chart, c2: Chart):
    """Tagged union of two charts; returns (prechart, start1, start2).

    States are renamed as by tagged_union, so the union is usable by the
    relational algorithms while keeping names readable.
    """
    return (tagged_union(c1.prechart, c2.prechart),
            f"L:{c1.start}", f"R:{c2.start}")


class ChartFormatError(ValueError):
    """Raised on malformed chart text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


def parse_chart_text(text: str, alphabet=None) -> Chart:
    """Parse the line-based chart format.

    Lines: "alphabet a b ...", "state q", "start q", "trans q a r",
    "out q vN".  '#' starts a comment.  Exactly one start line; every
    state referenced by trans/out/start must be declared.  alphabet,
    when given, restricts action letters as an alphabet line does.
    """
    states: set = set()
    trans: set = set()
    outs: set = set()
    declared: set | None = None
    start = None
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
        elif kind == "state":
            if len(parts) != 2:
                raise ChartFormatError("state line takes one name", lineno)
            states.add(parts[1])
        elif kind == "start":
            if len(parts) != 2:
                raise ChartFormatError("start line takes one name", lineno)
            if start is not None:
                raise ChartFormatError("duplicate start line", lineno)
            start = parts[1]
        elif kind == "out":
            if len(parts) != 3:
                raise ChartFormatError("out line takes: out q vN", lineno)
            _, q, vtok = parts
            if q not in states:
                raise ChartFormatError("out references undeclared state", lineno)
            if not (len(vtok) >= 2 and vtok[0] == "v" and vtok[1:].isdigit() and int(vtok[1:]) >= 1):
                raise ChartFormatError(f"malformed variable token {vtok!r}", lineno)
            outs.add((q, int(vtok[1:])))
        else:
            raise ChartFormatError(f"unknown directive {kind!r}", lineno)
    if start is None:
        raise ChartFormatError("missing start line", len(text.splitlines()) + 1)
    if start not in states:
        raise ChartFormatError("start references undeclared state", 1)
    return Chart(Prechart(frozenset(states), frozenset(trans), frozenset(outs)), start)


def format_chart_text(c: Chart) -> str:
    """Serialize a chart; parse_chart_text(format_chart_text(c)) round-trips."""
    lines = []
    letters = sorted(c.prechart.letters())
    if letters:
        lines.append("alphabet " + " ".join(letters))
    order = sorted(c.states, key=state_key)
    for q in order:
        lines.append(f"state {q}")
    lines.append(f"start {c.start}")
    for (q, a, r) in sorted(c.trans, key=lambda t: (state_key(t[0]), t[1], state_key(t[2]))):
        lines.append(f"trans {q} {a} {r}")
    for (q, v) in sorted(c.outs, key=lambda o: (state_key(o[0]), o[1])):
        lines.append(f"out {q} v{v}")
    return "\n".join(lines) + "\n"


def _dot_quote(s) -> str:
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def chart_to_dot(c: Chart) -> str:
    """Graphviz rendering: circles for states, dashed edges to output variables."""
    lines = ["digraph chart {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    order = sorted(c.states, key=state_key)
    for q in order:
        lines.append(f"  {_dot_quote(q)} [shape=circle];")
    lines.append(f"  __start -> {_dot_quote(c.start)};")
    for (q, a, r) in sorted(c.trans, key=lambda t: (state_key(t[0]), t[1], state_key(t[2]))):
        lines.append(f"  {_dot_quote(q)} -> {_dot_quote(r)} [label={_dot_quote(a)}];")
    vars_seen = sorted(c.prechart.variables())
    for v in vars_seen:
        lines.append(f'  "__v{v}" [shape=plaintext, label="v{v}"];')
    for (q, v) in sorted(c.outs, key=lambda o: (state_key(o[0]), o[1])):
        lines.append(f'  {_dot_quote(q)} -> "__v{v}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
