"""String diagrams over directed wires.

Terms are built from a small set of generators (copy, del, merge, gen,
act, cap, cup) together with identities, wire swaps, sequential
composition ';' and parallel composition '*'.  A wire word is a string
over '>' (forward) and '<' (backward); a term has a wire word at each
boundary.

A term denotes a tuple of behaviours, one per input port.
``open_chart`` builds them as one chart with an entry state per input,
composing the charts of the generators by their boundaries; every
query of the command line runs on it.  ``interpret`` gives the same
behaviours as the payload rows of a morphism between paired interfaces
(regbeh); it is the reference semantics, behind ``diagram_distance``,
``semantic_equal`` and ``check_axiom``.  Parsing, typing, printing,
comparing, hashing and both semantics walk a term with an explicit
stack, never by recursion.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .chart import Prechart, _valid_letter, state_key
from .expr import (
    ZERO, ExpansionBudgetError, Mu, Prefix, Sum, Var, alpha_normal, expand,
    free_vars, parse_expr, substitute,
)
from .regbeh import (
    IntMorphism, RbMorphism, embed_n, int_compose, int_counit, int_distance,
    int_id, int_sym, int_tensor, int_unit, rb_zero,
)

__all__ = [
    "Term", "Copy", "Del", "Merge", "Gen", "Act", "Cap", "Cup",
    "Id", "Sym", "Seq", "Tensor",
    "DiagramTypeError", "DiagramSyntaxError",
    "typecheck", "interpret",
    "OpenChart", "open_chart", "open_chart_pair",
    "parse_term", "format_term", "term_to_dot",
    "bend", "component", "diagram_distance", "semantic_equal",
    "from_expression", "zip_merge", "loop1",
    "axiom_catalog", "c1_copy_pair", "check_axiom",
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


class Term:
    """Base class for diagram terms."""

    __slots__ = ()

    def __str__(self):
        return format_term(self)


@dataclass(frozen=True)
class Copy(Term):
    pass


@dataclass(frozen=True)
class Del(Term):
    pass


@dataclass(frozen=True)
class Merge(Term):
    pass


@dataclass(frozen=True)
class Gen(Term):
    pass


@dataclass(frozen=True)
class Cap(Term):
    pass


@dataclass(frozen=True)
class Cup(Term):
    pass


@dataclass(frozen=True)
class Act(Term):
    letter: str

    def __post_init__(self):
        if not _valid_letter(self.letter):
            raise ValueError(f"invalid action letter {self.letter!r}")


@dataclass(frozen=True)
class Id(Term):
    word: str

    def __post_init__(self):
        _check_word(self.word, "identity wire word")


@dataclass(frozen=True)
class Sym(Term):
    left: str
    right: str

    def __post_init__(self):
        _check_word(self.left, "swap wire word")
        _check_word(self.right, "swap wire word")


class _Node(Term):
    """A composite term: equal to another exactly when they print alike,
    as format_term walks it by an explicit stack and round-trips."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and format_term(self) == format_term(other)

    def __hash__(self):
        return hash(format_term(self))

    def __repr__(self):
        return f"parse_term({format_term(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Seq(_Node):
    first: Term
    second: Term


@dataclass(frozen=True, eq=False, repr=False)
class Tensor(_Node):
    left: Term
    right: Term


# The constant generators: class -> (keyword, dom word, cod word,
# interpretation).  Interpretations are frozen, so every leaf shares one.
_GENERATORS = {
    Copy: ("copy", ">", ">>", embed_n(RbMorphism(1, 2, (Sum(Var(1), Var(2)),)))),
    Del: ("del", ">", "", embed_n(RbMorphism(1, 0, (ZERO,)))),
    Merge: ("merge", ">>", ">", embed_n(RbMorphism(2, 1, (Var(1), Var(1))))),
    Gen: ("gen", "", ">", embed_n(rb_zero(1))),
    Cap: ("cap", "<>", "", int_counit((1, 0))),
    Cup: ("cup", "", "><", int_unit((1, 0))),
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


def _leaf_words(t):
    kind = type(t)
    gen = _GENERATORS.get(kind)
    if gen is not None:
        return gen[1], gen[2]
    if kind is Act:
        return ">", ">"
    if kind is Id:
        return t.word, t.word
    if kind is Sym:
        return t.left + t.right, t.right + t.left
    raise TypeError(f"not a diagram term: {t!r}")


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


def typecheck(t):
    """Boundary words (dom, cod) of t; raises DiagramTypeError on mismatch."""
    def seq(f, g, node):
        if f[1] != g[0]:
            raise DiagramTypeError(
                f"cannot plug '{f[1] or 'empty'}' into '{g[0] or 'empty'}'",
                _path_to(t, node))
        return f[0], g[1]

    return _fold(t, _leaf_words, seq,
                 lambda f, g, _: (f[0] + g[0], f[1] + g[1]))


def _word_object(w):
    return w.count(FORWARD), w.count(BACKWARD)


def _leaf_morphism(t):
    gen = _GENERATORS.get(type(t))
    if gen is not None:
        return gen[3]
    if type(t) is Act:
        return embed_n(RbMorphism(1, 1, (Prefix(t.letter, Var(1)),)))
    if type(t) is Id:
        return int_id(_word_object(t.word))
    return int_sym(_word_object(t.left), _word_object(t.right))


def interpret(t) -> IntMorphism:
    """Semantics of a diagram as a morphism between paired interfaces.

    This is the reference semantics: the composites of the compact
    closed completion in regbeh, with payload rows that grow with the
    nesting of the term.  The queries of the command line run on
    open_chart instead.
    """
    typecheck(t)
    return _interpret(t)


def _interpret(t):
    # interpret for a term that typecheck has accepted
    return _fold(t, _leaf_morphism, lambda f, g, _: int_compose(f, g),
                 lambda f, g, _: int_tensor(f, g))


# --- open charts -----------------------------------------------------------


@dataclass(frozen=True)
class OpenChart:
    """A diagram as one chart with an entry state per payload input.

    A term (k,l) -> (m,n) has k+n entries, its forward inputs and then
    its backward ones, and l+m outputs, its backward outputs v1..vl and
    then its forward ones; entry i behaves like payload row i of
    interpret.  The states are numbered breadth-first from the entries.
    """

    prechart: Prechart
    entries: tuple


@functools.lru_cache(maxsize=1024)
def _leaf_chart(t):
    """The open chart of a leaf over local nodes, as (node count, output
    count, transitions, epsilon edges, entries, dom pair).

    Nodes 0..P-1 are the leaf's P outputs, and the states of the
    expansions of its payload rows follow; a state outputting vj has an
    epsilon edge to node j-1.
    """
    m = _leaf_morphism(t)
    charts = [expand(row) for row in m.payload.rows]
    width = m.payload.cod
    states = sorted({q for c in charts for q in c.states}, key=state_key)
    node = {q: width + i for i, q in enumerate(states)}
    trans = tuple(sorted({(node[q], a, node[r])
                          for c in charts for q, a, r in c.trans}))
    eps = tuple(sorted({(node[q], v - 1) for c in charts for q, v in c.outs}))
    entries = tuple(node[c.start] for c in charts)
    return width + len(states), width, trans, eps, entries, m.dom_pair


def _open_chart(t, max_states):
    # open_chart for a term that typecheck has accepted
    moves, eps = [], []  # per node: its transitions (letter, node); its epsilon edges

    def leaf(node):
        size, width, trans, edges, entries, (k, l) = _leaf_chart(node)
        base = len(moves)
        moves.extend([] for _ in range(size))
        eps.extend([] for _ in range(size))
        for q, a, r in trans:
            moves[base + q].append((a, base + r))
        for q, r in edges:
            eps[base + q].append(base + r)
        entries = [base + e for e in entries]
        outputs = list(range(base, base + width))
        return entries[:k], entries[k:], outputs[:l], outputs[l:]

    def seq(f, g, _):
        # f's forward outputs feed g's forward entries, and g's backward
        # outputs feed f's backward entries
        f_in, f_back, f_out_back, f_out = f
        g_in, g_back, g_out_back, g_out = g
        for x, y in zip(f_out, g_in):
            eps[x].append(y)
        for x, y in zip(g_out_back, f_back):
            eps[x].append(y)
        return f_in, g_back, f_out_back, g_out

    def tensor(f, g, _):
        return tuple(a + b for a, b in zip(f, g))

    ins, ins_back, outs_back, outs = _fold(t, leaf, seq, tensor)
    return _close(moves, eps, ins + ins_back, outs_back + outs, max_states)


def _close(moves, eps, entries, outputs, max_states):
    """Resolve the epsilon edges and keep the states reachable from the
    entries, numbered breadth-first.

    Each state takes the transitions of every node its epsilon edges
    reach, and outputs vj when they reach output node j; a cycle of
    epsilon edges adds nothing.
    """
    variable = {x: j for j, x in enumerate(outputs, start=1)}
    number = {}
    order = []

    def state(x):
        n = number.get(x)
        if n is None:
            if len(order) >= max_states:
                raise ExpansionBudgetError(
                    f"open chart exceeded {max_states} states")
            n = number[x] = len(order)
            order.append(x)
        return n

    entry_states = tuple(state(x) for x in entries)
    trans, outs = set(), set()
    for x in order:  # grows while it is walked
        q = number[x]
        seen = {x}
        todo = [x]
        steps = set()
        while todo:
            y = todo.pop()
            steps.update(moves[y])
            if y in variable:
                outs.add((q, variable[y]))
            for z in eps[y]:
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
        for a, y in sorted(steps):
            trans.add((q, a, state(y)))
    states = frozenset(range(len(order)))
    return OpenChart(Prechart(states, frozenset(trans), frozenset(outs)),
                     entry_states)


def open_chart(t, max_states=10000) -> OpenChart:
    """The open chart of a diagram; raises ExpansionBudgetError when it
    has more than max_states states.

    Generators are constant open charts.  ';' joins the outputs of each
    side to the entries of the other by epsilon edges and '*' puts entry
    and output lists side by side, so each costs the width of the
    boundary; the epsilon edges are resolved once, at the end.
    """
    typecheck(t)
    return _open_chart(t, max_states)


# --- concrete syntax ------------------------------------------------------

_BY_KEYWORD = {gen[0]: cls for cls, gen in _GENERATORS.items()}

# a token is a name, a wire word or any other single character, each
# after optional blanks; findall gives (name, word, character) with
# exactly one of them nonempty
_TOKEN = re.compile(r"\s*(?:([^\W\d_]+)|([<>]+)|(\S))")
_END = ("", "", "")


def _tokens(text):
    # stopping before trailing blanks keeps the match linear
    return _TOKEN.findall(text, 0, len(text.rstrip())) + [_END]


def _error(message, text, i, shift=0):
    """A syntax error at token i, or shift characters after its start."""
    starts = [m.start(m.lastindex)
              for m in _TOKEN.finditer(text, 0, len(text.rstrip()))]
    return DiagramSyntaxError(message, (starts + [len(text)])[i] + shift)


def _expect(text, tokens, i, ch):
    if tokens[i][2] != ch:
        raise _error(f"expected {ch!r}", text, i)
    return i + 1


def _leaf(text, tokens, i, alphabet):
    """The leaf term starting at token i, and the index after it."""
    name = tokens[i][0]
    if name in _BY_KEYWORD:
        return _BY_KEYWORD[name](), i + 1
    if not name:
        raise _error("expected a term", text, i)
    if name not in ("act", "id", "sym"):
        raise _error(f"unknown term {name!r}", text, i, len(name))
    i = _expect(text, tokens, i + 1, "(")
    if name == "act":
        letter = tokens[i][0]
        if not letter:
            raise _error("expected a term", text, i)
        if not _valid_letter(letter):
            raise _error(f"invalid action letter {letter!r}", text, i, len(letter))
        if alphabet is not None and letter not in alphabet:
            raise _error(f"undeclared letter {letter!r}", text, i)
        return Act(letter), _expect(text, tokens, i + 1, ")")
    left = tokens[i][1]  # a wire word, possibly empty
    i += bool(left)
    if name == "id":
        return Id(left), _expect(text, tokens, i, ")")
    i = _expect(text, tokens, i, ",")
    right = tokens[i][1]
    return Sym(left, right), _expect(text, tokens, i + bool(right), ")")


def parse_term(text, alphabet=None) -> Term:
    """Parse a term; ';' and '*' associate to the left, '*' binds tighter.
    alphabet, when given, restricts action letters."""
    tokens = _tokens(text)
    i = 0
    opened = []  # per open parenthesis: the sequence and tensor around it
    sequence = tensor = None
    while True:
        if tokens[i][2] == "(":
            opened.append((sequence, tensor))
            sequence = tensor = None
            i += 1
            continue
        atom, i = _leaf(text, tokens, i, alphabet)
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
                if tokens[i] is not _END:
                    raise _error("trailing input", text, i)
                return sequence
            if ch != ")":
                raise _error("expected ')'", text, i)
            atom = sequence
            sequence, tensor = opened.pop()
            i += 1
        i += 1


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
    if not parts:
        return Id("")
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


def _check_boundaries(t1, t2):
    """The one boundary check of every two-diagram comparison."""
    if typecheck(t1) != typecheck(t2):
        raise DiagramTypeError("the two diagrams have different boundaries")


def open_chart_pair(t1, t2, max_states=10000):
    """The open charts of two diagrams with equal boundary words; raises
    DiagramTypeError when the words differ."""
    _check_boundaries(t1, t2)
    return _open_chart(t1, max_states), _open_chart(t2, max_states)


def diagram_distance(t1, t2):
    """Behavioural distance between two diagrams of the same shape, by
    the reference semantics; raises DiagramTypeError when their boundary
    words differ."""
    _check_boundaries(t1, t2)
    return int_distance(_interpret(t1), _interpret(t2))


def semantic_equal(t1, t2) -> bool:
    """Row-wise bisimilarity of the two interpretations."""
    return diagram_distance(t1, t2) == 0


# --- compiling expressions to diagrams ------------------------------------


def zip_merge(n) -> Term:
    """Merge two interleaved n-blocks pointwise: 2n forward wires to n."""
    if n < 0:
        raise ValueError("negative width")
    if n == 0:
        return Id("")
    if n == 1:
        return Merge()
    shuffle = _tensor_fold([Id(">"), Sym(">" * (n - 1), ">"), Id(">" * (n - 1))])
    return Seq(shuffle, Tensor(Merge(), zip_merge(n - 1)))


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
    """Compile an expression into a diagram with one input and n outputs.

    Output wire i stands for variable vi; the interpretation's single
    payload row is behaviourally equivalent to e itself.
    """
    if isinstance(e, str):
        e = parse_expr(e)
    fv = free_vars(e)
    least = max(fv) if fv else 0
    if n is None:
        n = least
    if n < least:
        raise ValueError(f"expression uses v{least}, cannot compile at width {n}")
    return _compile(alpha_normal(e), n)


def _var_plug(i, n):
    return _tensor_fold([Gen()] * (i - 1) + [Id(">")] + [Gen()] * (n - i))


def _compile(e, n):
    if isinstance(e, Var):
        return _var_plug(e.index, n)
    if e == ZERO:
        if n == 0:
            return Del()
        return Seq(Del(), _tensor_fold([Gen()] * n))
    if isinstance(e, Prefix):
        return Seq(Act(e.letter), _compile(e.body, n))
    if isinstance(e, Sum):
        branches = Tensor(_compile(e.left, n), _compile(e.right, n))
        return _seq_fold([Copy(), branches, zip_merge(n)])
    if isinstance(e, Mu):
        # route the binder through wire n+1 and close it with feedback
        body = e.body if e.binder == n + 1 else \
            substitute(e.body, [(e.binder, Var(n + 1))])
        u = Seq(Merge(), _compile(body, n + 1))
        return _feedback(u, 2, n + 1)
    raise TypeError(f"not an expression: {e!r}")


# --- equational theory -----------------------------------------------------


def axiom_catalog():
    """Named pairs of diagrams that must be semantically equal."""
    a = "a"
    wire = Id(">")
    axioms = [
        ("snake-right", Seq(Tensor(Cup(), wire), Tensor(wire, Cap())), wire),
        ("snake-left", Seq(Tensor(Id("<"), Cup()), Tensor(Cap(), Id("<"))),
         Id("<")),
        ("copy-assoc",
         Seq(Copy(), Tensor(Copy(), wire)),
         Seq(Copy(), Tensor(wire, Copy()))),
        ("copy-unit", Seq(Copy(), Tensor(Del(), wire)), wire),
        ("copy-comm", Seq(Copy(), Sym(">", ">")), Copy()),
        ("merge-assoc",
         Seq(Tensor(Merge(), wire), Merge()),
         Seq(Tensor(wire, Merge()), Merge())),
        ("merge-unit", Seq(Tensor(Gen(), wire), Merge()), wire),
        ("merge-comm", Seq(Sym(">", ">"), Merge()), Merge()),
        ("bimonoid",
         Seq(Merge(), Copy()),
         _seq_fold([
             Tensor(Copy(), Copy()),
             _tensor_fold([wire, Sym(">", ">"), wire]),
             Tensor(Merge(), Merge()),
         ])),
        ("merge-del", Seq(Merge(), Del()), Tensor(Del(), Del())),
        ("gen-copy", Seq(Gen(), Copy()), Tensor(Gen(), Gen())),
        ("idempotence", Seq(Copy(), Merge()), wire),
        ("feedback-unit", loop1(Seq(Merge(), Copy())), wire),
        ("act-merge",
         Seq(Merge(), Act(a)),
         Seq(Tensor(Act(a), Act(a)), Merge())),
    ]
    return axioms


def c1_copy_pair():
    """A non-law: actions do not commute with copying."""
    a = "a"
    return (Seq(Act(a), Copy()),
            Seq(Copy(), Tensor(Act(a), Act(a))))


def check_axiom(lhs, rhs) -> bool:
    return semantic_equal(lhs, rhs)
