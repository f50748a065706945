"""String diagrams over directed wires.

Terms are built from a small set of generators (copy, del, merge, gen,
act, cap, cup) together with identities, wire swaps, sequential
composition ';' and parallel composition '*'.  A wire word is a string
over '>' (forward) and '<' (backward); a term has a wire word at each
boundary.

A term denotes a tuple of behaviours, one per input port.
``open_chart`` builds them as one chart with an entry state per input,
joining the literal open charts of the generators by their boundaries;
every query of the command line, ``axioms --check`` among them, runs on
two diagrams' open charts numbered as one joint.
One grammar, ``_shift_reduce``, reads diagram text, with two instances:
``parse_term`` builds a term, and ``_read_open`` lays out the open
chart as it reads, building none.  ``_read_open`` is the one way to an
open chart: a term is printed by ``format_term`` and read back, and a
term that it refuses raises the error of ``typecheck``.  ``_close``
resolves each chain of epsilon aliases once, by union-find.  ``_fold``
walks a term for ``typecheck`` and for ``_interpret``.
``interpret`` gives the same behaviours as the payload rows of a
morphism between paired interfaces; it is the reference semantics,
behind ``diagram_distance`` and ``semantic_equal``, which no command
runs, and the only way into regbeh, which it imports when it is called.
Reading, parsing, typing, printing, comparing, hashing and both
semantics keep their own stack, never recursing.  A term, leaf or
composite, is its text: it compares, hashes, prints and pickles through
format_term, which parse_term reads back, and it is its own copy.
"""

from __future__ import annotations

import re
from functools import partial, reduce

from .chart import (
    _LETTER_SET, MAX_STATES, ExpansionBudgetError, Prechart, _Frozen, _Joint, _Record, _set,
    _valid_letter,
)

__all__ = [
    "Term", "Copy", "Del", "Merge", "Gen", "Act", "Cap", "Cup",
    "Id", "Sym", "Seq", "Tensor",
    "DiagramTypeError", "DiagramSyntaxError",
    "typecheck", "interpret",
    "OpenChart", "open_chart",
    "parse_term", "format_term", "term_to_dot",
    "bend", "component", "diagram_distance", "semantic_equal",
    "from_expression", "zip_merge", "loop1",
    "axiom_catalog", "c1_copy_pair",
]

FORWARD = ">"
BACKWARD = "<"


class DiagramTypeError(Exception):
    """Boundary mismatch, with the path to the offending subterm."""

    def __init__(self, message, path=()):
        self.path = tuple(path)
        if self.path:
            message = f"{message} (at {'.'.join(self.path)})"
        super().__init__(message)


class DiagramSyntaxError(Exception):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


def _check_word(w, what):
    if not isinstance(w, str) or w.strip("<>"):
        raise ValueError(f"{what} must be a string over '>' and '<', got {w!r}")


class Term(_Frozen):
    """Base class for diagram terms.  A term is its text: it compares,
    hashes, prints and pickles through format_term, which walks it by an
    explicit stack and round-trips with parse_term."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and format_term(self) == format_term(other)

    def __hash__(self):
        return hash(format_term(self))

    def __str__(self):
        return format_term(self)

    def __repr__(self):
        return f"parse_term({format_term(self)!r})"

    def __reduce__(self):
        return parse_term, (format_term(self),)


class Copy(Term):
    __slots__ = ()


class Del(Term):
    __slots__ = ()


class Merge(Term):
    __slots__ = ()


class Gen(Term):
    __slots__ = ()


class Cap(Term):
    __slots__ = ()


class Cup(Term):
    __slots__ = ()


class Act(Term):
    __slots__ = ("letter",)

    def __init__(self, letter: str):
        _set(self, "letter", letter)
        if not _valid_letter(letter):
            raise ValueError(f"invalid action letter {letter!r}")


class Id(Term):
    __slots__ = ("word",)

    def __init__(self, word: str):
        _set(self, "word", word)
        _check_word(word, "identity wire word")


class Sym(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: str, right: str):
        _set(self, "left", left)
        _set(self, "right", right)
        _check_word(left, "swap wire word")
        _check_word(right, "swap wire word")


class Seq(Term):
    __slots__ = ("first", "second")

    def __init__(self, first: Term, second: Term):
        _set(self, "first", first)
        _set(self, "second", second)


class Tensor(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set(self, "left", left)
        _set(self, "right", right)


# The constant generators: class -> (keyword, dom word, cod word, open
# chart).  An open chart lists, per entry, the output it passes straight
# through to, or the (letter, output) moves of a node of its own, letter
# None for an epsilon edge.
_GENERATORS = {
    Copy: ("copy", ">", ">>", (((None, 0), (None, 1)),)),
    Del: ("del", ">", "", ((),)),
    Merge: ("merge", ">>", ">", (0, 0)),
    Gen: ("gen", "", ">", ()),
    Cap: ("cap", "<>", "", (0,)),
    Cup: ("cup", "", "><", (0,)),
}


def _fold(t, leaf, seq, tensor):
    """Fold a term bottom-up and left to right, with an explicit stack.

    leaf(node) gives the value of a leaf; seq(v1, v2, node) and
    tensor(v1, v2, node) combine the values of a node's two children.
    """
    values = []
    todo = [t]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is tuple:  # both children of node are folded
            combine, node = node
            right = values.pop()
            values[-1] = combine(values[-1], right, node)
        elif kind is Seq:
            todo += ((seq, node), node.second, node.first)
        elif kind is Tensor:
            todo += ((tensor, node), node.right, node.left)
        else:
            values.append(leaf(node))
    return values[0]


def _path_to(t, target):
    """The path from t down to the subterm target, e.g. (';1', '*2')."""
    todo = [(t, None)]  # a node and its path, a linked list innermost first
    while todo:
        node, path = todo.pop()
        if node is target:
            steps = []
            while path is not None:
                step, path = path
                steps.append(step)
            return tuple(reversed(steps))
        if type(node) is Seq:
            todo += ((node.second, (";2", path)), (node.first, (";1", path)))
        elif type(node) is Tensor:
            todo += ((node.right, ("*2", path)), (node.left, ("*1", path)))
    raise ValueError("target is not a subterm")


def _plug_error(t, node, out, into):
    """The DiagramTypeError of the ';' node of t that plugs the word out
    into the word into."""
    return DiagramTypeError(f"cannot plug '{out or 'empty'}' into '{into or 'empty'}'",
                            _path_to(t, node))


def typecheck(t):
    """Boundary words (dom, cod) of t; raises DiagramTypeError on mismatch."""
    def seq(f, g, node):
        if f[1] != g[0]:
            raise _plug_error(t, node, f[1], g[0])
        return f[0], g[1]

    layouts = {}  # id of a leaf object -> its _leaf_layout

    def leaf(node):
        layout = layouts.get(id(node))
        if layout is None:
            layout = layouts[id(node)] = _leaf_layout(node)
        return layout

    # a leaf's boundary words are the first two fields of its _leaf_layout
    return _fold(t, leaf, seq, lambda f, g, _: (f[0] + g[0], f[1] + g[1]))[:2]


def _word_object(w):
    return w.count(FORWARD), w.count(BACKWARD)


def interpret(t):
    """Semantics of a diagram as a morphism between paired interfaces.

    This is the reference semantics: the composites of the compact
    closed completion in regbeh, with payload rows that grow with the
    nesting of the term.  The queries of the command line run on
    open_chart instead.
    """
    typecheck(t)
    return _interpret(t)


def _interpret(t):
    # interpret for a term that typecheck has accepted.  Only the reference
    # entry points load regbeh, here, and they read its functions off the
    # module at each call, so a wrapper or patch put on it sees them.
    from . import regbeh
    return _fold(t, regbeh.leaf_morphism, lambda f, g, _: regbeh.int_compose(f, g),
                 lambda f, g, _: regbeh.int_tensor(f, g))


# --- open charts -----------------------------------------------------------


class OpenChart(_Record):
    """A diagram as one chart with an entry state per payload input.

    A term (k,l) -> (m,n) has k+n entries, its forward inputs and then
    its backward ones, and l+m outputs, its backward outputs v1..vl and
    then its forward ones; entry i behaves like payload row i of
    interpret.  The states are numbered breadth-first from the entries.
    """

    __slots__ = ("prechart", "entries")

    def __init__(self, prechart: Prechart, entries: tuple):
        _set(self, "prechart", prechart)
        _set(self, "entries", entries)


def _layout(dom, cod, chart):
    """The layout of a leaf with boundary words dom and cod and an open
    chart as in _GENERATORS: its nodes are its outputs and then one per
    entry that has moves, numbered from 0.  A layout is the tuple

        dom, cod, moves, eps, shift, ins, ins_back, outs_back, outs

    with moves and eps the (letter, node) transitions and the epsilon
    edges of each node, shift whether any of them names a node, and the
    four port groups of its boundary, already split: its forward and
    backward entries and its backward and forward outputs."""
    k, l = dom.count(FORWARD), dom.count(BACKWARD)
    width = l + cod.count(FORWARD)
    moves, eps, entries = [()] * width, [()] * width, []
    for entry in chart:
        if type(entry) is int:
            entries.append(entry)
        else:
            entries.append(len(moves))
            moves.append(tuple([(a, v) for a, v in entry if a is not None]))
            eps.append(tuple([v for a, v in entry if a is None]))
    return (dom, cod, tuple(moves), tuple(eps), any(moves) or any(eps),
            tuple(entries[:k]), tuple(entries[k:]), tuple(range(l)), tuple(range(l, width)))


# the layouts of the canonical spellings of leaves, filled once when the
# module loads: the keywords, act(x) for every letter x, and id and sym
# over single wires
_LEAF_LAYOUTS = {}


def _leaf_layout(t):
    """The _layout of a leaf, from _LEAF_LAYOUTS when it has the leaf's
    spelling.  act(a) moves by a to its output; a swap passes each input
    straight to the output of its own wire, and id(w) is sym(w, )."""
    layout = _LEAF_LAYOUTS.get(_leaf_text(t))  # a TypeError for no leaf
    if layout is not None:
        return layout
    kind = type(t)
    if kind in _GENERATORS:
        return _layout(*_GENERATORS[kind][1:])
    if kind is Act:
        return _layout(">", ">", (((t.letter, 0),),))
    u, w = (t.word, "") if kind is Id else (t.left, t.right)
    (p1, q1), (p2, q2) = _word_object(u), _word_object(w)
    q = q1 + q2  # outputs: u's then w's backward ones, w's then u's forward ones
    width = q + p1 + p2
    return _layout(u + w, w + u, (*range(q + p2, width), *range(q, q + p2),
                                  *range(q1, q), *range(q1)))


# The boundary of a laid-out subterm is the tuple dom, cod, ins,
# ins_back, outs_back, outs: its boundary words, its forward and backward
# entry nodes and its backward and forward output nodes.


def _place(layout, moves, eps):
    """The boundary of one occurrence of a leaf with the given _leaf_layout,
    its nodes appended to moves and eps at the next free node numbers."""
    dom, cod, node_moves, node_eps, shift, ins, ins_back, outs_back, outs = layout
    base = len(moves)
    if shift:  # an empty entry is kept, not rebuilt
        moves += [tuple([(a, base + v) for a, v in x]) if x else x for x in node_moves]
        eps += [tuple([base + v for v in x]) if x else x for x in node_eps]
    else:
        moves += node_moves
        eps += node_eps
    if not base:
        return dom, cod, ins, ins_back, outs_back, outs
    # each group shifted, most of them empty or of one port
    return (dom, cod,
            (base + ins[0],) if len(ins) == 1 else ins and tuple([base + v for v in ins]),
            (base + ins_back[0],) if len(ins_back) == 1 else
            ins_back and tuple([base + v for v in ins_back]),
            (base + outs_back[0],) if len(outs_back) == 1 else
            outs_back and tuple([base + v for v in outs_back]),
            (base + outs[0],) if len(outs) == 1 else outs and tuple([base + v for v in outs]))


def _beside_all(factors):
    """The boundary of factors[0] * factors[1] * ..., each group joined once."""
    if len(factors) == 2:  # the common case
        f, g = factors
        return f[0] + g[0], f[1] + g[1], f[2] + g[2], f[3] + g[3], f[4] + g[4], f[5] + g[5]
    dom, cod, *groups = zip(*factors)
    return ("".join(dom), "".join(cod), *[tuple([v for p in g for v in p]) for g in groups])


def _plug(f, g, eps):
    """The boundary of f ; g, whose words the caller has matched: f's forward
    outputs feed g's forward entries, and g's backward outputs feed f's
    backward entries, by epsilon edges added to eps."""
    for x, y in zip(f[5], g[2]):
        eps[x] = (y,)  # an output has no edge until it is wired, once
    for x, y in zip(g[4], f[3]):
        eps[x] = (y,)
    return f[0], g[1], f[2], g[3], f[4], g[5]


def _close(moves, eps, entries, outputs, max_states, offset=0):
    """Resolve the epsilon edges and keep the states reachable from the
    entries, numbered breadth-first from offset.  Returns the successor
    list (letter, state) and the output set of each state, in number
    order, and the entry states.

    Each state takes the transitions of every node its epsilon edges
    reach, and outputs vj when they reach output node j; a cycle of
    epsilon edges adds nothing.  An alias (no moves, one epsilon edge:
    every output _plug wires) reaches what its edge does, so union-find
    with path compression resolves it to the first node of its chain that
    is no alias, or to a node of the cycle that the chain ends in, which
    reaches nothing.  Walks visit no other alias, each chain is followed
    once, and each root's closure is walked once, for the first state that
    resolves to it.  No output is an alias: a leaf gives its outputs no
    epsilon edge, _plug wires only the outputs it consumes, f's forward
    ones and g's backward ones, and a composite's outputs are the others,
    so no output of a whole diagram has an epsilon edge."""
    variable = {x: j for j, x in enumerate(outputs, start=1)}
    root = {}  # node -> the node it resolves to
    number, order = {}, []

    def find(x):  # the node that x, not yet in root, resolves to
        chain = []
        while x not in root:
            chain.append(x)
            if len(eps[x]) != 1 or moves[x]:  # no alias
                break
            root[x] = -1  # on the chain: met again, it closes a cycle of aliases
            x = eps[x][0]
        r = x if root.get(x, -1) < 0 else root[x]
        for y in chain:
            root[y] = r
        return r

    def state(x):
        n = number.get(x)
        if n is None:
            if len(order) >= max_states:
                raise ExpansionBudgetError(f"open chart exceeded {max_states} states")
            n = number[x] = offset + len(order)
            order.append(x)
        return n

    entry_states = tuple(state(x) for x in entries)
    closure = {}  # root with epsilon edges -> the steps and variables its walk meets
    succ, outs = [], []
    for x in order:  # grows while it is walked
        r = root[x] if x in root else find(x)
        if not eps[r]:  # most roots: the walk would meet r alone
            steps = set(moves[r])
            variables = (variable[r],) if r in variable else ()
        elif r in closure:
            steps, variables = closure[r]
        else:
            seen, todo = {r}, [r]
            steps, variables = set(), set()
            while todo:
                y = todo.pop()
                steps.update(moves[y])
                if y in variable:
                    variables.add(variable[y])
                for z in eps[y]:
                    z = root[z] if z in root else find(z)
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
            closure[r] = steps, variables
        succ.append([(a, state(y)) for a, y in sorted(steps)])
        outs.append(frozenset(variables))
    return succ, outs, entry_states


def open_chart(t, max_states=MAX_STATES) -> OpenChart:
    """The open chart of a diagram; raises ExpansionBudgetError when it
    has more than max_states states.

    Generators are literal open charts.  ';' joins the outputs of each
    side to the entries of the other by epsilon edges and '*' puts entry
    and output lists side by side, so each costs the width of the
    boundary; the epsilon edges are resolved once, at the end.
    """
    _, parts = _parts(t)
    succ, outs, entries = _close(*parts, max_states)
    return OpenChart(_Joint(succ, outs, (), int).prechart(), entries)


# --- concrete syntax ------------------------------------------------------

# one object per keyword: terms are immutable, so every parse shares them
_BY_KEYWORD = {gen[0]: cls() for cls, gen in _GENERATORS.items()}

# a token is a name, a wire word or any other single character but a
# blank; findall skips the blanks between tokens
_TOKEN = re.compile(r"[^\W\d_]+|[<>]+|\S")
_NAME = re.compile(r"[^\W\d_]")
_WIRES = ("<", ">")
_WITH_ARGUMENTS = {"act": Act, "id": Id, "sym": Sym}


def _error(message, text, i, shift=0):
    """A syntax error at token i, or shift characters after its start."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return DiagramSyntaxError(message, (starts + [len(text)])[i] + shift)


def _leaf(text, tokens, i, alphabet, leaves):
    """The act, id or sym leaf starting at token i, and the index after it.
    leaves maps the name and arguments of each such leaf read so far to
    its one object."""
    name = tokens[i]
    if name not in _WITH_ARGUMENTS:
        if not _NAME.match(name):
            raise _error("expected a term", text, i)
        raise _error(f"unknown term {name!r}", text, i, len(name))
    if tokens[i + 1] != "(":
        raise _error("expected '('", text, i + 1)
    i += 2
    if name == "act":
        letter = tokens[i]
        if letter not in _LETTER_SET:  # a token is a str
            if not _NAME.match(letter):
                raise _error("expected a term", text, i)
            raise _error(f"invalid action letter {letter!r}", text, i, len(letter))
        if alphabet is not None and letter not in alphabet:
            raise _error(f"undeclared letter {letter!r}", text, i)
        key = (name, letter)
        i += 1
    else:
        left = tokens[i] if tokens[i][:1] in _WIRES else ""  # possibly empty
        i += bool(left)
        if name == "id":
            key = (name, left)
        else:
            if tokens[i] != ",":
                raise _error("expected ','", text, i)
            right = tokens[i + 1] if tokens[i + 1][:1] in _WIRES else ""
            i += 1 + bool(right)
            key = (name, left, right)
    if tokens[i] != ")":
        raise _error("expected ')'", text, i)
    leaf = leaves.get(key)
    if leaf is None:
        leaf = leaves[key] = _WITH_ARGUMENTS[name](*key[1:])
    return leaf, i + 1


class _GrammarError(Exception):
    """An error of _shift_reduce: its message and the index of its token."""


def _shift_reduce(tokens, atom, seq, beside):
    """The one grammar of diagram text: ';' and '*' associate to the left,
    '*' binds tighter, and '(' ')' group.  One shift-reduce pass over
    tokens, which end with "", with an explicit stack of open parentheses.

    atom(i) reads the term that starts at token i, other than a group,
    and gives its value and the index after it; seq(v1, v2) combines the
    values of a ';', and beside(values) the list of the two or more
    factors of a tensor, gathered until the tensor is reduced.  Raises
    _GrammarError for a token where the grammar wants another.
    """
    i = 0
    opened = []  # per open parenthesis: the sequence and factors around it
    sequence = factors = None
    while True:
        if tokens[i] == "(":
            opened.append((sequence, factors))
            sequence = factors = None
            i += 1
            continue
        value, i = atom(i)
        while True:
            ch = tokens[i]
            if ch == "*":
                factors = factors or []
                factors.append(value)
                break
            if factors:
                factors.append(value)
                value, factors = beside(factors), None
            sequence = value if sequence is None else seq(sequence, value)
            if ch == ";":
                break
            if not opened:
                if ch:
                    raise _GrammarError("trailing input", i)
                return sequence
            if ch != ")":
                raise _GrammarError("expected ')'", i)
            value = sequence
            sequence, factors = opened.pop()
            i += 1
        i += 1


def parse_term(text, alphabet=None) -> Term:
    """Parse a term by _shift_reduce, into Seq and Tensor nodes, the
    factors of a tensor folded from the left.  alphabet, when given,
    restricts action letters.  All occurrences of one leaf in text are
    one object."""
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end
    leaves = {}

    def atom(i):
        leaf = _BY_KEYWORD.get(tokens[i])
        if leaf is None:
            return _leaf(text, tokens, i, alphabet, leaves)
        return leaf, i + 1

    try:
        return _shift_reduce(tokens, atom, Seq, partial(reduce, Tensor))
    except _GrammarError as e:
        message, i = e.args
        raise _error(message, text, i) from None


def _leaf_text(t):
    kind = type(t)
    if kind is Act:
        return f"act({t.letter})"
    if kind is Id:
        return f"id({t.word})"
    if kind is Sym:
        return f"sym({t.left},{t.right})"
    if kind in _GENERATORS:
        return _GENERATORS[kind][0]
    raise TypeError(f"not a diagram term: {t!r}")


# _TOKEN, but a leaf with arguments, blanks and all, is one token: the
# tokens _TOKEN finds in it are those it finds there in the whole text,
# as a name ends where '(' or a blank starts and '(' and ')' stand alone
_READ_TOKEN = re.compile(r"(?:act|id|sym)\s*\([^()]*\)|" + _TOKEN.pattern)
# filled here, _leaf_layout making each entry while the table lacks it
_LEAF_LAYOUTS.update({_leaf_text(leaf): _leaf_layout(leaf) for leaf in (
    *_BY_KEYWORD.values(), *map(Act, _LETTER_SET), *map(Id, ("", *_WIRES)),
    *[Sym(u, w) for u in ("", *_WIRES) for w in ("", *_WIRES)])})


def _read_open(text, alphabet=None):
    """The boundary words (dom, cod) of the term that text spells and its
    open chart as (moves, eps, entries, outputs), the epsilon edges not yet
    resolved, read in one pass over the tokens of _READ_TOKEN with no
    term built; None when parse_term or typecheck would raise.  It never
    raises.  Each distinct leaf token is laid out once, from _LEAF_LAYOUTS
    when it is spelled as format_term prints it."""
    layouts = {}  # any other leaf token -> its _leaf_layout
    moves, eps = [], []  # per node: its transitions (letter, node); its epsilon edges
    tokens = _READ_TOKEN.findall(text)
    tokens.append("")  # the end

    def atom(i):
        token = tokens[i]
        layout = _LEAF_LAYOUTS.get(token)
        if layout is None or (alphabet is not None and token[:4] == "act("
                              and token[4] not in alphabet):
            layout = layouts.get(token)
            if layout is None:  # a leaf token is read whole, or _leaf raises
                pieces = _TOKEN.findall(token)
                pieces.append("")
                leaf, _ = _leaf(token, pieces, 0, alphabet, {})
                layout = layouts[token] = _leaf_layout(leaf)
        return _place(layout, moves, eps), i + 1

    def seq(f, g):
        if f[1] != g[0]:
            raise DiagramTypeError("cannot plug")
        return _plug(f, g, eps)

    try:
        dom, cod, ins, ins_back, outs_back, outs = _shift_reduce(tokens, atom, seq, _beside_all)
    except (_GrammarError, DiagramSyntaxError, DiagramTypeError):
        return None
    return (dom, cod), (moves, eps, ins + ins_back, outs_back + outs)


def _read_text(text, alphabet=None):
    """A diagram text as a query takes it: the parts _read_open reads, or,
    for a text that does not read, parse_term's term, which raises its
    syntax error here and its type error when _parts opens it.  A query
    reads both texts before it opens either, so a syntax error comes
    before a type error, in each case the left text's first."""
    return _read_open(text, alphabet) or parse_term(text, alphabet)


def _parts(d):
    """The boundary words and open-chart parts of a diagram: the parts
    _read_open read from text, or those it reads from a term's printed
    text.  A term that the reader refuses does not type, and raises the
    DiagramTypeError of typecheck."""
    if type(d) is tuple:
        return d
    parts = _read_open(format_term(d))
    if parts is None:
        typecheck(d)
    return parts


def format_term(t) -> str:
    """Render with ';' binding looser than '*'; round-trips with parse_term."""
    parts = []
    todo = [(t, 0)]  # a term and how tightly its context binds, or a string
    while todo:
        item = todo.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, level = item
        kind = type(node)
        if kind is Seq:
            # right-nested compositions keep their parentheses
            pieces = [(node.first, 0), " ; ", (node.second, 1)]
            wrap = level > 0
        elif kind is Tensor:
            pieces = [(node.left, 1), " * ", (node.right, 2)]
            wrap = level > 1
        else:
            parts.append(_leaf_text(node))
            continue
        if wrap:
            pieces = ["(", *pieces, ")"]
        todo.extend(reversed(pieces))
    return "".join(parts)


def term_to_dot(t) -> str:
    """Structural tree of a term in DOT format."""
    lines = ["digraph term {", "  node [shape=box];"]
    count = 0
    todo = [(t, None)]  # a term and its parent's number, or an edge to draw
    while todo:
        node, parent = todo.pop()
        if type(node) is int:  # the edge into a finished subtree
            lines.append(f"  n{parent} -> n{node};")
            continue
        my = count
        count += 1
        kind = type(node)
        if kind is Seq:
            label, children = ";", (node.first, node.second)
        elif kind is Tensor:
            label, children = "*", (node.left, node.right)
        else:
            label, children = _leaf_text(node), ()
        lines.append(f'  n{my} [label="{label}"];')
        if parent is not None:
            todo.append((my, parent))
        todo += ((child, my) for child in reversed(children))
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- structured combinators ----------------------------------------------


def _tensor_fold(factors):
    parts = [f for f in factors if not (isinstance(f, Id) and f.word == "")]
    t = parts[0]
    for f in parts[1:]:
        t = Tensor(t, f)
    return t


def _seq_fold(stages):
    t = stages[0]
    for s in stages[1:]:
        t = Seq(t, s)
    return t


def bend(t) -> Term:
    """Turn every backward boundary wire into a trailing forward one.

    Backward wires in the domain are removed first, leftmost first,
    each adding a forward wire at the end of the codomain; then the
    codomain is cleared the same way, adding forward wires at the end
    of the domain.
    """
    while True:
        dom, cod = typecheck(t)
        if BACKWARD in dom:
            i = dom.index(BACKWARD)
            v1, v2 = dom[:i], dom[i + 1:]
            t = _seq_fold([
                _tensor_fold([Id(v1), Cup(), Id(v2)]),
                _tensor_fold([Id(v1), Sym(">", "<"), Id(v2)]),
                _tensor_fold([Id(v1 + "<"), Sym(">", v2)]),
                _tensor_fold([t, Id(">")]),
            ])
        elif BACKWARD in cod:
            i = cod.index(BACKWARD)
            w1, w2 = cod[:i], cod[i + 1:]
            t = _seq_fold([
                _tensor_fold([t, Id(">")]),
                _tensor_fold([Id(w1 + "<"), Sym(w2, ">")]),
                _tensor_fold([Id(w1), Cap(), Id(w2)]),
            ])
        else:
            return t


def component(t, i) -> Term:
    """Restrict a forward diagram to its i-th input wire."""
    dom, _ = typecheck(t)
    if BACKWARD in dom:
        raise DiagramTypeError("component needs a forward domain; bend first")
    m = len(dom)
    if not 1 <= i <= m:
        raise ValueError(f"input index {i} out of range 1..{m}")
    plug = [Gen()] * (i - 1) + [Id(">")] + [Gen()] * (m - i)
    return Seq(_tensor_fold(plug), t)


def _check_boundaries(words1, words2):
    """The one boundary check of every two-diagram comparison."""
    if words1 != words2:
        raise DiagramTypeError("the two diagrams have different boundaries")


def _joint(t1, t2, max_states=MAX_STATES) -> _Joint:
    """The open charts of two diagrams as one joint: each numbered by
    _close, the right one's after the left one's, with a row per pair of
    entries; a state's local name is its number in its own open chart.
    A diagram is a term or the parts _read_open read, as _parts takes it.
    DiagramTypeError is raised when their boundary words differ, before
    either is closed."""
    words1, parts1 = _parts(t1)
    words2, parts2 = _parts(t2)
    _check_boundaries(words1, words2)
    succ1, outs1, entries1 = _close(*parts1, max_states)
    split = len(succ1)
    succ2, outs2, entries2 = _close(*parts2, max_states, split)
    return _Joint(succ1 + succ2, outs1 + outs2, list(zip(entries1, entries2)),
                  lambda i: i - split if i >= split else i, split)


def diagram_distance(t1, t2):
    """Behavioural distance between two diagrams of the same shape, by
    the reference semantics; raises DiagramTypeError when their boundary
    words differ."""
    from . import regbeh  # loaded on call, as in _interpret
    _check_boundaries(typecheck(t1), typecheck(t2))
    return regbeh.int_distance(_interpret(t1), _interpret(t2))


def semantic_equal(t1, t2) -> bool:
    """Row-wise bisimilarity of the two interpretations."""
    return diagram_distance(t1, t2) == 0


# --- compiling expressions to diagrams ------------------------------------


def zip_merge(n) -> Term:
    """Merge two interleaved n-blocks pointwise: 2n forward wires to n."""
    if n < 0:
        raise ValueError("negative width")
    t = Merge() if n else Id("")
    for k in range(2, n + 1):
        shuffle = _tensor_fold([Id(">"), Sym(">" * (k - 1), ">"), Id(">" * (k - 1))])
        t = Seq(shuffle, Tensor(Merge(), t))
    return t


def loop1(u) -> Term:
    """Feed the last output of u back into its last input."""
    dom, cod = typecheck(u)
    if BACKWARD in dom or BACKWARD in cod or not dom or not cod:
        raise DiagramTypeError("feedback needs nonempty forward boundaries")
    return _feedback(u, len(dom), len(cod))


def _feedback(u, k, l):
    # loop1 of a term u: '>'*k -> '>'*l that the caller has typed
    return _seq_fold([
        _tensor_fold([Id(">" * (k - 1)), Cup()]),
        _tensor_fold([u, Id("<")]),
        _tensor_fold([Id(">" * (l - 1)), Sym(">", "<")]),
        _tensor_fold([Id(">" * (l - 1)), Cap()]),
    ])


def from_expression(e, n=None) -> Term:
    """Compile an expression, or its text, into a diagram with one input
    and n outputs.

    Output wire i stands for variable vi; the interpretation's single
    payload row is behaviourally equivalent to e itself.  The walk runs
    on e's nameless node: each mu routes its variable through one more
    wire, so at width n under d binders free vj is wire j and bound
    index i is wire n + d - i, and no binder is renamed.
    """
    # loaded on call, so that a diagram query loads no expression module
    from .expr import _BOUND, _MU, _PREFIX, _SUM, _ZERO, _nameless, _read, _Table

    table = _Table()
    root = _read(e, table) if isinstance(e, str) else _nameless(table, e)
    least = table.high[root]
    if n is None:
        n = least
    if n < least:
        raise ValueError(f"expression uses v{least}, cannot compile at width {n}")
    keys = table.keys
    done = []  # compiled terms, innermost last
    # a node at a width, or a build from the last done terms
    todo = [(root, n)]
    while todo:
        m, n = todo.pop()
        if callable(m):  # n is how many done terms it takes
            parts = done[-n:]
            del done[-n:]
            done.append(m(*parts))
            continue
        key = keys[m]
        kind = key[0]
        if kind == _ZERO:
            done.append(Del() if n == 0 else Seq(Del(), _tensor_fold([Gen()] * n)))
        elif kind == _PREFIX:
            todo += [(lambda body, a=Act(key[1]): Seq(a, body), 1), (key[2], n)]
        elif kind == _SUM:
            todo += [(lambda l, r, z=zip_merge(n): _seq_fold([Copy(), Tensor(l, r), z]), 2),
                     (key[2], n), (key[1], n)]
        elif kind == _MU:
            # route the bound variable through wire n+1 and close it with feedback
            todo += [(lambda u, w=n + 1: _feedback(Seq(Merge(), u), 2, w), 1), (key[1], n + 1)]
        else:  # a variable: free vj is wire j, bound index i is wire n - i
            i = n - key[1] if kind == _BOUND else key[1]
            done.append(_tensor_fold([Gen()] * (i - 1) + [Id(">")] + [Gen()] * (n - i)))
    return done[0]


# --- equational theory -----------------------------------------------------


# the laws as the axioms command prints them: a name and the texts of
# its two sides
_AXIOMS = (
    ("snake-right", "cup * id(>) ; id(>) * cap", "id(>)"),
    ("snake-left", "id(<) * cup ; cap * id(<)", "id(<)"),
    ("copy-assoc", "copy ; copy * id(>)", "copy ; id(>) * copy"),
    ("copy-unit", "copy ; del * id(>)", "id(>)"),
    ("copy-comm", "copy ; sym(>,>)", "copy"),
    ("merge-assoc", "merge * id(>) ; merge", "id(>) * merge ; merge"),
    ("merge-unit", "gen * id(>) ; merge", "id(>)"),
    ("merge-comm", "sym(>,>) ; merge", "merge"),
    ("bimonoid", "merge ; copy", "copy * copy ; id(>) * sym(>,>) * id(>) ; merge * merge"),
    ("merge-del", "merge ; del", "del * del"),
    ("gen-copy", "gen ; copy", "gen * gen"),
    ("idempotence", "copy ; merge", "id(>)"),
    ("feedback-unit",
     "id(>) * cup ; (merge ; copy) * id(<) ; id(>) * sym(>,<) ; id(>) * cap", "id(>)"),
    ("act-merge", "merge ; act(a)", "act(a) * act(a) ; merge"),
)


def axiom_catalog():
    """Named pairs of diagrams that must be semantically equal."""
    return [(name, parse_term(lhs), parse_term(rhs)) for name, lhs, rhs in _AXIOMS]


def c1_copy_pair():
    """A non-law: actions do not commute with copying."""
    return parse_term("act(a) ; copy"), parse_term("copy ; act(a) * act(a)")
