"""String diagrams over directed wires.

Terms are built from a small set of generators (copy, del, merge, gen,
act, cap, cup) together with identities, wire swaps, sequential
composition ';' and parallel composition '*'.  A wire word is a string
over '>' (forward) and '<' (backward); a term has a wire word at each
boundary.  Interpretation sends every term to a morphism between
paired interfaces whose payload is a tuple of behaviours, so equality
and distance of diagrams reduce to bisimilarity and behavioural
distance of the payload rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chart import _valid_letter
from .expr import (
    ZERO, Mu, Prefix, Sum, Var, alpha_normal, free_vars, parse_expr,
    substitute,
)
from .regbeh import (
    IntMorphism, RbMorphism, embed_n, int_compose, int_counit, int_distance,
    int_id, int_sym, int_tensor, int_unit, rb_zero,
)

__all__ = [
    "Term", "Copy", "Del", "Merge", "Gen", "Act", "Cap", "Cup",
    "Id", "Sym", "Seq", "Tensor",
    "DiagramTypeError", "DiagramSyntaxError",
    "typecheck", "interpret", "interpret_pair",
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
    if not isinstance(w, str) or any(c not in "><" for c in w):
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


@dataclass(frozen=True)
class Seq(Term):
    first: Term
    second: Term


@dataclass(frozen=True)
class Tensor(Term):
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


def typecheck(t, _path=()):
    """Boundary words (dom, cod) of t; raises DiagramTypeError on mismatch."""
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
    if kind is Seq:
        d1, c1 = typecheck(t.first, _path + (";1",))
        d2, c2 = typecheck(t.second, _path + (";2",))
        if c1 != d2:
            raise DiagramTypeError(
                f"cannot plug '{c1 or 'empty'}' into '{d2 or 'empty'}'", _path)
        return d1, c2
    if kind is Tensor:
        d1, c1 = typecheck(t.left, _path + ("*1",))
        d2, c2 = typecheck(t.right, _path + ("*2",))
        return d1 + d2, c1 + c2
    raise TypeError(f"not a diagram term: {t!r}")


def _word_object(w):
    return w.count(FORWARD), w.count(BACKWARD)


def interpret(t, *, checked=False) -> IntMorphism:
    """Semantics of a diagram as a morphism between paired interfaces.

    The term is type-checked first unless checked is true, which a
    caller passes only when typecheck(t) has just succeeded.
    """
    if not checked:
        typecheck(t)
    return _interpret(t)


def _interpret(t):
    kind = type(t)
    gen = _GENERATORS.get(kind)
    if gen is not None:
        return gen[3]
    if kind is Act:
        return embed_n(RbMorphism(1, 1, (Prefix(t.letter, Var(1)),)))
    if kind is Id:
        return int_id(_word_object(t.word))
    if kind is Sym:
        return int_sym(_word_object(t.left), _word_object(t.right))
    if kind is Seq:
        return int_compose(_interpret(t.first), _interpret(t.second))
    if kind is Tensor:
        return int_tensor(_interpret(t.left), _interpret(t.right))
    raise TypeError(f"not a diagram term: {t!r}")


# --- concrete syntax ------------------------------------------------------

_BY_KEYWORD = {gen[0]: cls for cls, gen in _GENERATORS.items()}


class _TermParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise DiagramSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "><":
            self.pos += 1
        return self.text[start:self.pos]

    def name(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if start == self.pos:
            self.error("expected a term")
        return self.text[start:self.pos]

    def sequence(self):
        t = self.tensor()
        while self.peek() == ";":
            self.pos += 1
            t = Seq(t, self.tensor())
        return t

    def tensor(self):
        t = self.atom()
        while self.peek() == "*":
            self.pos += 1
            t = Tensor(t, self.atom())
        return t

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            t = self.sequence()
            self.eat(")")
            return t
        word = self.name()
        if word in _BY_KEYWORD:
            return _BY_KEYWORD[word]()
        if word == "act":
            self.eat("(")
            letter = self.name()
            if not _valid_letter(letter):
                self.error(f"invalid action letter {letter!r}")
            self.eat(")")
            return Act(letter)
        if word == "id":
            self.eat("(")
            w = self.word()
            self.eat(")")
            return Id(w)
        if word == "sym":
            self.eat("(")
            left = self.word()
            self.eat(",")
            right = self.word()
            self.eat(")")
            return Sym(left, right)
        self.error(f"unknown term {word!r}")


def parse_term(text) -> Term:
    p = _TermParser(text)
    t = p.sequence()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return t


def format_term(t) -> str:
    """Render with ';' binding looser than '*'; round-trips with parse_term."""
    return _fmt(t, 0)


def _fmt(t, level):
    kind = type(t)
    if kind is Seq:
        # right-nested compositions keep their parentheses
        s = f"{_fmt(t.first, 0)} ; {_fmt(t.second, 1)}"
        return f"({s})" if level > 0 else s
    if kind is Tensor:
        s = f"{_fmt(t.left, 1)} * {_fmt(t.right, 2)}"
        return f"({s})" if level > 1 else s
    if kind is Act:
        return f"act({t.letter})"
    if kind is Id:
        return f"id({t.word})"
    if kind is Sym:
        return f"sym({t.left},{t.right})"
    if kind in _GENERATORS:
        return _GENERATORS[kind][0]
    raise TypeError(f"not a diagram term: {t!r}")


def term_to_dot(t) -> str:
    """Structural tree of a term in DOT format."""
    lines = ["digraph term {", "  node [shape=box];"]
    counter = [0]

    def walk(node):
        my = counter[0]
        counter[0] += 1
        kind = type(node)
        if kind is Seq:
            label = ";"
            children = [node.first, node.second]
        elif kind is Tensor:
            label = "*"
            children = [node.left, node.right]
        else:
            label = format_term(node)
            children = []
        lines.append(f'  n{my} [label="{label}"];')
        for child in children:
            cid = walk(child)
            lines.append(f"  n{my} -> n{cid};")
        return my

    walk(t)
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


def interpret_pair(t1, t2):
    """The interpretations of two diagrams with equal boundary words.

    This is the one boundary check of every two-diagram comparison; it
    raises DiagramTypeError when the words differ.
    """
    if typecheck(t1) != typecheck(t2):
        raise DiagramTypeError("the two diagrams have different boundaries")
    return interpret(t1, checked=True), interpret(t2, checked=True)


def diagram_distance(t1, t2):
    """Behavioural distance between two diagrams of the same shape."""
    return int_distance(*interpret_pair(t1, t2))


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
