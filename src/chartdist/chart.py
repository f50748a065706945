"""Charts: finite transition systems with variable outputs.

A prechart is a finite set of states with labelled transitions and a
set of output variables attached to each state.  A chart additionally
fixes a start state.  This module reads chart text straight into a
numbered chart (``_read_chart``, its states numbered in declaration
order; ``parse_chart_text`` is its named view), prints charts as text,
restricts them to their reachable states, and joins two numbered charts
as one ``_Joint``, the numbered prechart that every two-input query
refines.  A prechart object is numbered once, by ``_numbered``, in
``state_key`` order, and the printers, ``bisim.quotient`` and a joint's
print-alike check read that numbering.  It also holds the immutable
record base of the package's records and the state budget of
expansions and open charts.
"""

from __future__ import annotations

__all__ = [
    "Prechart", "Chart", "ChartFormatError", "ExpansionBudgetError",
    "reachable", "disjoint_union",
    "parse_chart_text", "format_chart_text", "chart_to_dot",
    "state_key",
]

_LETTERS = "abcdefghijklmnopqrstuwxyz"  # single lowercase; 'v' is reserved
_LETTER_SET = frozenset(_LETTERS)
MAX_STATES = 10000  # default state budget of expansions and open charts


class ExpansionBudgetError(RuntimeError):
    """An expansion or an open chart exceeded its state budget.

    The reachable derivative set of an expression is always finite, so
    hitting the cap means the cap is too small for the input.
    """


def state_key(q):
    """Deterministic sort key for state identifiers (ints or strings)."""
    if isinstance(q, bool):  # bool is an int subclass; forbid quietly via repr
        return (1, 0, repr(q))
    if isinstance(q, int):
        return (0, q, "")
    return (1, 0, str(q))


def _valid_letter(a) -> bool:
    return isinstance(a, str) and len(a) == 1 and a in _LETTERS


def _digits(s) -> bool:
    # the index of vN: nonempty ASCII digits (str.isdigit also takes '²')
    return s.isascii() and s.isdigit()


def _var_index(token):
    """N of a variable token vN with N >= 1 in ASCII digits; else None,
    also when N has more digits than int() converts."""
    if token[:1] == "v" and _digits(token[1:]):
        try:
            n = int(token[1:])
        except ValueError:  # past sys.get_int_max_str_digits()
            return None
        if n >= 1:
            return n
    return None


_WIDTH = 600
_PIECE = 10 ** _WIDTH


def _decimal(n: int) -> str:
    """The decimal text of the int n.  It prints _WIDTH digits at a time,
    fewer than the least int-to-text digit limit CPython allows, so every
    int prints and the process's limit is never touched."""
    sign, n, pieces = "-" if n < 0 else "", abs(n), []
    while n >= _PIECE:
        n, r = divmod(n, _PIECE)
        pieces.append(f"{r:0{_WIDTH}}")
    return "".join([sign, str(n), *reversed(pieces)])


def _integer(digits: str) -> int:
    """The int of a string of ASCII digits, read _WIDTH at a time, as
    _decimal prints it, so that no digit limit applies."""
    n = 0
    for i in range(0, len(digits), _WIDTH):
        n = n * 10 ** len(digits[i:i + _WIDTH]) + int(digits[i:i + _WIDTH])
    return n


def _ratio(x) -> str:
    """The text of a rational x, as str(Fraction) prints it: "p/q", or
    "p" when q is 1; every numerator and denominator prints."""
    n = _decimal(x.numerator)
    return n if x.denominator == 1 else f"{n}/{_decimal(x.denominator)}"


_set = object.__setattr__


class _Frozen:
    """Base of the immutable values: assigning or deleting a field
    raises AttributeError, so a constructor sets the fields with _set,
    and a value is its own copy, shallow or deep."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class _Record(_Frozen):
    """Base of the immutable records: ==, hash and repr over the fields
    that the class lists in __slots__, as a frozen dataclass has them.
    A record pickles as its class called on its fields."""

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Prechart(_Record):
    """States plus transition and output relations (no start state).

    Prechart(...) checks that every transition and output names a state,
    every letter is a valid action letter and every variable index an int
    of at least 1, and raises ValueError at the first that is not.
    """

    # trans holds triples (state, letter, state), outs pairs (state, variable index)
    __slots__ = ("states", "trans", "outs")

    def __init__(self, states: frozenset, trans: frozenset, outs: frozenset):
        _set(self, "states", states)
        _set(self, "trans", trans)
        _set(self, "outs", outs)
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

    @classmethod
    def _of(cls, states: frozenset, trans: frozenset, outs: frozenset):
        """A prechart of relations that the package built well formed, not
        checked again; Prechart(...) checks those of library callers and of
        unpickling."""
        p = object.__new__(cls)
        _set(p, "states", states)
        _set(p, "trans", trans)
        _set(p, "outs", outs)
        return p

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


class Chart(_Record):
    """A prechart with a designated start state."""

    __slots__ = ("prechart", "start")

    def __init__(self, prechart: Prechart, start):
        _set(self, "prechart", prechart)
        _set(self, "start", start)
        if start not in prechart.states:
            raise ValueError(f"start state {start!r} is not a state")

    @property
    def states(self) -> frozenset:
        return self.prechart.states

    @property
    def trans(self) -> frozenset:
        return self.prechart.trans

    @property
    def outs(self) -> frozenset:
        return self.prechart.outs


def reachable(c: Chart) -> Chart:
    """Restrict to the states reachable from the start."""
    index, succ, _ = _numbered(c.prechart)
    states = list(index)
    seen = {states[i] for i in _reach(succ, index[c.start])}
    p = Prechart._of(
        frozenset(seen),
        frozenset(t for t in c.trans if t[0] in seen),
        frozenset(o for o in c.outs if o[0] in seen),
    )
    return Chart(p, c.start)


def _reach(succ, i) -> list:
    """The numbers reachable from i in successor lists succ, i first."""
    seen, order = {i}, [i]
    for q in order:  # grows while it is walked
        for _, r in succ[q]:
            if r not in seen:
                seen.add(r)
                order.append(r)
    return order


def _numbered(p: Prechart):
    """The states of p numbered in state_key order, the one order of the
    named views: a dict from each state to its number, and the successor
    list (letter, number) and the output set of each number."""
    index = {q: i for i, q in enumerate(sorted(p.states, key=state_key))}
    succ = [[] for _ in index]
    outs = [set() for _ in index]
    for (q, a, r) in p.trans:
        succ[index[q]].append((a, index[r]))
    for (q, v) in p.outs:
        outs[index[q]].add(v)
    return index, succ, [frozenset(vs) for vs in outs]


def _tag(side: str, q) -> str:
    """The name of state q of the left ("L") or right ("R") input of a
    joint; the one name function of tagged states."""
    return f"{side}:{q}"


class _Joint:
    """Inputs of one kind numbered as one prechart: state i has the moves
    (letter, j) of succ[i] and the outputs outs[i], and rows are the seed
    pairs to compare.  local(i) names state i in its own input.  The
    states below split are the left input's and the others the right's,
    named by side with _tag; with split None the inputs share states and
    their local names.  Names are made only where printed or read back.
    """

    __slots__ = ("succ", "outs", "rows", "local", "split")

    def __init__(self, succ, outs, rows, local, split=None):
        self.succ, self.outs, self.rows, self.local, self.split = succ, outs, rows, local, split

    def name(self, i):
        """The name of state i, where it is printed or read back."""
        if self.split is None:
            return self.local(i)
        return _tag("L" if i < self.split else "R", self.local(i))

    def prechart(self) -> Prechart:
        """The named view: the prechart of the states under their names."""
        names = [self.name(i) for i in range(len(self.succ))]
        return Prechart._of(
            frozenset(names),
            frozenset([(names[i], a, names[j]) for i, moves in enumerate(self.succ)
                       for a, j in moves]),
            frozenset([(names[i], v) for i, vs in enumerate(self.outs) for v in vs]))


class _Side:
    """One numbered chart: state i has the number offset + i, is named
    names[i] and has the moves (letter, number) of succ[i] and the
    outputs outs[i], and start is the start state's i.  _read_chart reads
    one from chart text, at any offset, and _side numbers a Chart object
    from 0."""

    __slots__ = ("names", "succ", "outs", "start", "offset")

    def __init__(self, names, succ, outs, start, offset=0):
        self.names, self.succ, self.outs, self.start = names, succ, outs, start
        self.offset = offset

    def chart(self) -> Chart:
        """The named view of a chart numbered from 0: the chart of the
        states under their names."""
        joint = _Joint(self.succ, self.outs, [], self.names.__getitem__)
        return Chart(joint.prechart(), self.names[self.start])


def _side(c: Chart) -> _Side:
    """A Chart numbered as _numbered numbers it.  Two states that print
    alike, as 1 and "1" do, would share a name in a joint and raise
    ValueError."""
    index, succ, outs = _numbered(c.prechart)
    if any(type(q) is not str for q in index):  # a str prints as itself
        seen: dict = {}
        for q in index:
            other = seen.setdefault(f"{q}", q)
            if other is not q:
                raise ValueError(f"states {other!r} and {q!r} print alike")
    return _Side(list(index), succ, outs, index[c.start])


def _chart_joint(left: _Side, right: _Side) -> _Joint:
    """Two numbered charts, the left one numbered from 0 and the right
    one's states after the left one's, with one row of their starts.  A
    right chart read at the left one's state count is joined as it is;
    any other has its moves renumbered."""
    k = len(left.names)
    succ = right.succ
    if right.offset != k:
        succ = [[(a, j - right.offset + k) for a, j in moves] for moves in succ]
    return _Joint(left.succ + succ, left.outs + right.outs, [(left.start, k + right.start)],
                  [*left.names, *right.names].__getitem__, k)


def disjoint_union(c1: Chart, c2: Chart):
    """The named view of two charts' joint: (prechart, start1, start2),
    the states renamed "L:<q>" and "R:<q>"."""
    joint = _chart_joint(_side(c1), _side(c2))
    (x, y), = joint.rows
    return joint.prechart(), joint.name(x), joint.name(y)


class ChartFormatError(ValueError):
    """Raised on malformed chart text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


def _read_chart(text: str, alphabet=None, offset=0) -> _Side:
    """Read the line-based chart format straight into a numbered chart,
    its states numbered from offset in the order of their first state
    lines.

    Lines: "alphabet a b ...", "state q", "start q", "trans q a r",
    "out q vN".  '#' starts a comment anywhere in a line.  Exactly one
    start line; a state named by a trans or out line must be declared
    on an earlier line, the start state on any line.  The alphabet line
    restricts every trans line, before or after it (a late one reports
    the least missing letter).  alphabet, when given, restricts action
    letters as an alphabet line does.  Repeated lines add nothing.
    """
    number: dict = {}  # state name -> number
    succ: list = [()] * offset  # number -> set of moves (letter, number); none below offset
    outs: list = [()] * offset  # number -> set of variable indices
    declared: set | None = None
    allowed = _LETTER_SET if alphabet is None else _LETTER_SET.intersection(alphabet)
    start = start_line = None
    lineno = 0
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    for lineno, parts in enumerate(map(str.split, lines), start=1):
        if not parts:
            continue
        kind = parts[0]
        if kind == "trans":  # the common line first
            if len(parts) != 4:
                raise ChartFormatError("trans line takes: trans q a r", lineno)
            _, q, a, r = parts
            try:
                moves, j = succ[number[q]], number[r]
            except KeyError:
                raise ChartFormatError("trans references undeclared state", lineno) from None
            if a not in allowed:
                raise ChartFormatError(_letter_error(a, declared), lineno)
            moves.add((a, j))
        elif kind == "alphabet":
            if declared is not None:
                raise ChartFormatError("duplicate alphabet line", lineno)
            declared = set(parts[1:])
            for a in parts[1:]:
                if a not in _LETTER_SET:
                    raise ChartFormatError(f"invalid alphabet letter {a!r}", lineno)
            missing = {a for moves in succ for a, _ in moves} - declared
            if missing:
                raise ChartFormatError(
                    f"letter {min(missing)!r} not in declared alphabet", lineno)
            allowed = allowed & declared
        elif kind == "state":
            if len(parts) != 2:
                raise ChartFormatError("state line takes one name", lineno)
            if parts[1] not in number:
                number[parts[1]] = len(succ)
                succ.append(set())
                outs.append(set())
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
            if q not in number:
                raise ChartFormatError("out references undeclared state", lineno)
            v = _var_index(vtok)
            if v is None:
                raise ChartFormatError(f"malformed variable token {vtok!r}", lineno)
            outs[number[q]].add(v)
        else:
            raise ChartFormatError(f"unknown directive {kind!r}", lineno)
    if start is None:
        raise ChartFormatError("missing start line", lineno + 1)
    if start not in number:
        raise ChartFormatError("start references undeclared state", start_line)
    del succ[:offset], outs[:offset]
    return _Side(list(number), succ, [frozenset(vs) for vs in outs], number[start] - offset,
                 offset)


def _letter_error(a, declared) -> str:
    """The message of a trans line whose letter a is refused: the first of
    the letter checks that a fails."""
    if a not in _LETTER_SET:
        return f"invalid action letter {a!r}"
    if declared is not None and a not in declared:
        return f"letter {a!r} not in declared alphabet"
    return f"undeclared letter {a!r}"


def parse_chart_text(text: str, alphabet=None) -> Chart:
    """Parse the line-based chart format (see _read_chart): the named view
    of the numbered chart that _read_chart reads."""
    return _read_chart(text, alphabet).chart()


def format_chart_text(c: Chart) -> str:
    """Serialize a chart; parse_chart_text(format_chart_text(c)) round-trips."""
    index, succ, outs = _numbered(c.prechart)
    return _chart_text(list(index), succ, outs, index[c.start])


def _chart_text(names, succ, outs, start) -> str:
    """The text of a numbered chart whose numbers are in the order of its
    names, state i named names[i]: its letters sorted, its states, and
    each state's moves and outputs, sorted, in number order."""
    letters = sorted({a for moves in succ for a, _ in moves})
    lines = ["alphabet " + " ".join(letters)] if letters else []
    lines += [f"state {q}" for q in names]
    lines.append(f"start {names[start]}")
    for i, moves in enumerate(succ):
        lines += [f"trans {names[i]} {a} {names[j]}" for a, j in sorted(moves)]
    for i, vs in enumerate(outs):
        lines += [f"out {names[i]} v{v}" for v in sorted(vs)]
    return "\n".join(lines) + "\n"


def _dot_quote(s) -> str:
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def chart_to_dot(c: Chart) -> str:
    """Graphviz rendering: circles for states, dashed edges to output variables."""
    index, succ, outs = _numbered(c.prechart)
    names = [_dot_quote(q) for q in index]
    lines = ["digraph chart {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    lines += [f"  {q} [shape=circle];" for q in names]
    lines.append(f"  __start -> {names[index[c.start]]};")
    for i, moves in enumerate(succ):
        lines += [f"  {names[i]} -> {names[j]} [label={_dot_quote(a)}];" for a, j in sorted(moves)]
    for v in sorted(set().union(*outs)):
        lines.append(f'  "__v{v}" [shape=plaintext, label="v{v}"];')
    for i, vs in enumerate(outs):
        lines += [f'  {names[i]} -> "__v{v}" [style=dashed];' for v in sorted(vs)]
    lines.append("}")
    return "\n".join(lines) + "\n"
