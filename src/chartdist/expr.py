"""Expressions for regular behaviours.

Five constructors: 0 (empty behaviour), variables vN, action prefix
a.e, sum e+f, and recursion mu vN.e.  The module provides parsing and
printing, capture-avoiding simultaneous substitution, the one-step
semantics (action derivatives plus output variables), and expansion of
an expression into its chart of reachable derivatives.

Concrete syntax: prefix and mu bind tighter than +, and a mu scope
extends as far right as possible, so "a.0+b.mu v1.a.v1" is the sum of
a.0 and b.(mu v1.(a.v1)).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .chart import _LETTERS, Chart, Prechart

__all__ = [
    "Expr", "Zero", "Var", "Prefix", "Sum", "Mu", "ZERO",
    "StepResult", "ExprSyntaxError", "ExpansionBudgetError",
    "free_vars", "alpha_normal", "alpha_equivalent", "substitute",
    "step", "expand", "parse_expr", "format_expr",
]


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExpansionBudgetError(RuntimeError):
    """Chart expansion exceeded its state cap.

    The reachable derivative set of an expression is always finite, so
    hitting the cap means the cap is too small for the input.
    """


class Expr:
    """Base class; concrete expressions are the five dataclasses below."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True)
class Zero(Expr):
    pass


@dataclass(frozen=True)
class Var(Expr):
    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 1:
            raise ValueError(f"variable index must be a positive int, got {self.index!r}")


@dataclass(frozen=True)
class Prefix(Expr):
    letter: str
    body: Expr

    def __post_init__(self):
        if not (isinstance(self.letter, str) and len(self.letter) == 1 and self.letter in _LETTERS):
            raise ValueError(f"invalid action letter {self.letter!r}")


@dataclass(frozen=True)
class Sum(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mu(Expr):
    binder: int
    body: Expr

    def __post_init__(self):
        if not isinstance(self.binder, int) or self.binder < 1:
            raise ValueError(f"binder index must be a positive int, got {self.binder!r}")


ZERO = Zero()


@lru_cache(maxsize=None)
def free_vars(e: Expr) -> frozenset:
    if isinstance(e, Zero):
        return frozenset()
    if isinstance(e, Var):
        return frozenset({e.index})
    if isinstance(e, Prefix):
        return free_vars(e.body)
    if isinstance(e, Sum):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Mu):
        return free_vars(e.body) - {e.binder}
    raise TypeError(f"not an expression: {e!r}")


def alpha_normal(e: Expr) -> Expr:
    """Canonical renaming of binders.

    The binder at nesting depth k becomes v(B+k+1) where B is the
    largest free variable index.  Alpha-equivalent expressions map to
    the same tree, and the map is idempotent.
    """
    base = max(free_vars(e), default=0)

    def rec(t: Expr, depth: int, env: dict) -> Expr:
        if isinstance(t, Zero):
            return t
        if isinstance(t, Var):
            return Var(env.get(t.index, t.index))
        if isinstance(t, Prefix):
            return Prefix(t.letter, rec(t.body, depth, env))
        if isinstance(t, Sum):
            return Sum(rec(t.left, depth, env), rec(t.right, depth, env))
        new = base + depth + 1
        return Mu(new, rec(t.body, depth + 1, {**env, t.binder: new}))

    return rec(e, 0, {})


def alpha_equivalent(e1: Expr, e2: Expr) -> bool:
    return alpha_normal(e1) == alpha_normal(e2)


def substitute(e: Expr, bindings) -> Expr:
    """Simultaneous capture-avoiding substitution.

    bindings is a sequence of (variable index, expression) pairs with
    distinct indices.  Binders that would capture are renamed to the
    smallest index free everywhere in scope.
    """
    smap = {}
    for (v, g) in bindings:
        if v in smap:
            raise ValueError(f"duplicate substitution for v{v}")
        smap[v] = g
    if not smap:
        return e
    return _subst(e, smap)


def _subst(e: Expr, smap: dict) -> Expr:
    if isinstance(e, Zero):
        return e
    if isinstance(e, Var):
        return smap.get(e.index, e)
    if isinstance(e, Prefix):
        return Prefix(e.letter, _subst(e.body, smap))
    if isinstance(e, Sum):
        return Sum(_subst(e.left, smap), _subst(e.right, smap))
    w = e.binder
    inner = {v: g for (v, g) in smap.items() if v != w}
    if not inner:
        return e  # binder shadows everything that was being substituted
    if all(w not in free_vars(g) for g in inner.values()):
        return Mu(w, _subst(e.body, inner))
    # rename the binder before substituting under it
    avoid = set(inner)
    for g in inner.values():
        avoid |= free_vars(g)
    avoid |= free_vars(e.body)
    z = 1
    while z in avoid:
        z += 1
    renamed = _subst(e.body, {w: Var(z)})
    return Mu(z, _subst(renamed, inner))


@dataclass(frozen=True)
class StepResult:
    """One-step semantics: action derivatives and output variables."""

    transitions: frozenset  # pairs (letter, Expr)
    outputs: frozenset      # variable indices


def step(e: Expr) -> StepResult:
    if isinstance(e, Zero):
        return StepResult(frozenset(), frozenset())
    if isinstance(e, Var):
        return StepResult(frozenset(), frozenset({e.index}))
    if isinstance(e, Prefix):
        return StepResult(frozenset({(e.letter, e.body)}), frozenset())
    if isinstance(e, Sum):
        l, r = step(e.left), step(e.right)
        return StepResult(l.transitions | r.transitions, l.outputs | r.outputs)
    if isinstance(e, Mu):
        inner = step(e.body)
        trans = frozenset((a, substitute(t, [(e.binder, e)])) for (a, t) in inner.transitions)
        return StepResult(trans, inner.outputs - {e.binder})
    raise TypeError(f"not an expression: {e!r}")


def expand(e: Expr, max_states: int = 10000) -> Chart:
    """Chart of all reachable derivatives, states named by canonical text."""
    start = alpha_normal(e)
    start_key = format_expr(start)
    states = {start_key: start}
    trans: set = set()
    outs: set = set()
    queue = deque([start_key])
    while queue:
        key = queue.popleft()
        sr = step(states[key])
        for v in sr.outputs:
            outs.add((key, v))
        succs = set()
        targets = {}
        for (a, t) in sr.transitions:
            nt = alpha_normal(t)
            tkey = format_expr(nt)
            succs.add((a, tkey))
            targets[tkey] = nt
        for (a, tkey) in sorted(succs):
            trans.add((key, a, tkey))
            if tkey not in states:
                if len(states) >= max_states:
                    raise ExpansionBudgetError(
                        f"expansion exceeded {max_states} states")
                states[tkey] = targets[tkey]
                queue.append(tkey)
    p = Prechart(frozenset(states), frozenset(trans), frozenset(outs))
    return Chart(p, start_key)


# --- concrete syntax ---------------------------------------------------


def format_expr(e: Expr) -> str:
    """Print an expression; parse_expr inverts this exactly."""
    if isinstance(e, Zero):
        return "0"
    if isinstance(e, Var):
        return f"v{e.index}"
    if isinstance(e, Prefix):
        body = format_expr(e.body)
        if isinstance(e.body, Sum):
            body = f"({body})"
        return f"{e.letter}.{body}"
    if isinstance(e, Mu):
        return f"mu v{e.binder}.{format_expr(e.body)}"
    if isinstance(e, Sum):
        left = format_expr(e.left)
        # a mu on the rightmost spine would swallow the '+', so fence it
        if _open_mu(e.left):
            left = f"({left})"
        right = format_expr(e.right)
        if isinstance(e.right, Sum):
            right = f"({right})"
        return f"{left}+{right}"
    raise TypeError(f"not an expression: {e!r}")


def _open_mu(e: Expr) -> bool:
    if isinstance(e, Mu):
        return True
    if isinstance(e, Prefix):
        return _open_mu(e.body)
    if isinstance(e, Sum):
        return _open_mu(e.right)
    return False


class _Parser:
    def __init__(self, text: str, alphabet=None):
        self.text = text
        self.pos = 0
        self.alphabet = alphabet

    def error(self, message: str):
        raise ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Expr:
        e = self.sum()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return e

    def sum(self) -> Expr:
        e = self.term()
        while True:
            self.skip_ws()
            if self.peek() == "+":
                self.pos += 1
                e = Sum(e, self.term())
            else:
                return e

    def at_mu_keyword(self) -> bool:
        t, p = self.text, self.pos
        return t.startswith("mu", p) and (p + 2 == len(t) or t[p + 2] != ".")

    def var_token(self) -> int:
        self.skip_ws()
        if self.peek() != "v":
            self.error("expected a variable")
        start = self.pos
        self.pos += 1
        digits = ""
        while self.peek().isdigit():
            digits += self.peek()
            self.pos += 1
        if not digits or int(digits) < 1:
            self.pos = start
            self.error("malformed variable token")
        return int(digits)

    def term(self) -> Expr:
        self.skip_ws()
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if self.at_mu_keyword():
            self.pos += 2
            binder = self.var_token()
            self.skip_ws()
            self.expect(".")
            return Mu(binder, self.sum())
        if ch == "0":
            self.pos += 1
            return ZERO
        if ch == "(":
            self.pos += 1
            e = self.sum()
            self.skip_ws()
            self.expect(")")
            return e
        if ch == "v":
            nxt = self.text[self.pos + 1] if self.pos + 1 < len(self.text) else ""
            if nxt.isdigit():
                return Var(self.var_token())
            self.error("reserved letter 'v'")
        if ch in _LETTERS:
            if self.alphabet is not None and ch not in self.alphabet:
                self.error(f"undeclared letter {ch!r}")
            self.pos += 1
            self.skip_ws()
            self.expect(".")
            return Prefix(ch, self.term())
        self.error(f"unexpected character {ch!r}")


def parse_expr(text: str, alphabet=None) -> Expr:
    """Parse expression text; alphabet, when given, restricts action letters."""
    return _Parser(text, alphabet).parse()
