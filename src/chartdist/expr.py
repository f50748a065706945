"""Expressions for regular behaviours.

Five constructors: 0 (empty behaviour), variables vN, action prefix
a.e, sum e+f, and recursion mu vN.e.  The module provides parsing and
printing, capture-avoiding simultaneous substitution, the one-step
semantics (action derivatives plus output variables), and expansion of
expressions into their reachable derivatives: numbered, for the joint
that the queries refine, or as a chart named by canonical text.

Concrete syntax: prefix and mu bind tighter than +, and a mu scope
extends as far right as possible, so "a.0+b.mu v1.a.v1" is the sum of
a.0 and b.(mu v1.(a.v1)).

Nodes are hash-consed: a constructor returns the one live node with
the given fields, found in a weak intern table, so two expressions are
structurally equal exactly when they are the same object, and equality
and hashing are by identity.  Each node computes its free variables
once, when it is built.  Every traversal keeps its own stack, so no
recursion depth grows with the size of an expression, and a traversal
visits a node shared by several parents once.  Expansion keys a state
by its interned alpha-normal node and memoises binder normalisation for
the length of one call, so the successor of a state reuses the work
done on that state; a state's text is printed only where it is named.
"""

from __future__ import annotations

from collections import deque
from weakref import ref

from .chart import (
    _LETTERS, MAX_STATES, Chart, ExpansionBudgetError, _digits, _Joint, _Record, _set,
    _valid_letter, _var_index,
)

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


# --- interned nodes ----------------------------------------------------

# (class, fields...) -> weak reference to the live node with those fields
_interned: dict = {}

# values of Expr._normal_at besides an offset
_ANY, _NEVER = -1, -2


class _Ref(ref):
    __slots__ = ("key",)


def _forget(r):
    # weakref callback: the node is gone, so its entry goes too
    if _interned.get(r.key) is r:
        del _interned[r.key]


def _intern(key, node, free, normal_at):
    _set(node, "free_vars", free)
    _set(node, "_normal_at", normal_at)
    r = _interned[key] = _Ref(node, _forget)
    r.key = key
    return node


class Expr:
    """Base class of the five node classes.

    Nodes are immutable and interned.  ``free_vars`` is the frozenset of
    free variable indices.  ``_normal_at`` is the offset o at which the
    node is its own alpha-normal form, its binders at nesting depth k
    being v(o+k+1): _ANY for a node without binders, _NEVER if there is
    no such o.
    """

    __slots__ = ("free_vars", "_normal_at", "__weakref__")
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __str__(self) -> str:
        return format_expr(self)

    def __repr__(self) -> str:
        return f"parse_expr({format_expr(self)!r})"


class Zero(Expr):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        r = _interned.get(key)
        return r and r() or _intern(key, object.__new__(cls), frozenset(), _ANY)


class Var(Expr):
    __slots__ = ("index",)
    _fields = ("index",)

    def __new__(cls, index):
        if not isinstance(index, int) or index < 1:
            raise ValueError(f"variable index must be a positive int, got {index!r}")
        key = (cls, index)
        r = _interned.get(key)
        node = r and r()
        if node is None:
            node = object.__new__(cls)
            _set(node, "index", index)
            _intern(key, node, frozenset((index,)), _ANY)
        return node


class Prefix(Expr):
    __slots__ = ("letter", "body")
    _fields = ("letter", "body")

    def __new__(cls, letter, body):
        if not _valid_letter(letter):
            raise ValueError(f"invalid action letter {letter!r}")
        key = (cls, letter, body)
        r = _interned.get(key)
        node = r and r()
        if node is None:
            node = object.__new__(cls)
            _set(node, "letter", letter)
            _set(node, "body", body)
            _intern(key, node, body.free_vars, body._normal_at)
        return node


class Sum(Expr):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left, right):
        key = (cls, left, right)
        r = _interned.get(key)
        node = r and r()
        if node is None:
            node = object.__new__(cls)
            _set(node, "left", left)
            _set(node, "right", right)
            lf, rf = left.free_vars, right.free_vars
            ln, rn = left._normal_at, right._normal_at
            _intern(key, node, lf if rf <= lf else rf if lf <= rf else lf | rf,
                    rn if ln == _ANY else ln if rn == _ANY or rn == ln else _NEVER)
        return node


class Mu(Expr):
    __slots__ = ("binder", "body")
    _fields = ("binder", "body")

    def __new__(cls, binder, body):
        if not isinstance(binder, int) or binder < 1:
            raise ValueError(f"binder index must be a positive int, got {binder!r}")
        key = (cls, binder, body)
        r = _interned.get(key)
        node = r and r()
        if node is None:
            node = object.__new__(cls)
            _set(node, "binder", binder)
            _set(node, "body", body)
            free = body.free_vars
            _intern(key, node, free - {binder} if binder in free else free,
                    binder - 1 if body._normal_at in (_ANY, binder) else _NEVER)
        return node


ZERO = Zero()


def free_vars(e: Expr) -> frozenset:
    try:
        return e.free_vars
    except AttributeError:
        raise TypeError(f"not an expression: {e!r}") from None


def alpha_normal(e: Expr) -> Expr:
    """Canonical renaming of binders.

    The binder at nesting depth k becomes v(B+k+1) where B is the
    largest free variable index.  Alpha-equivalent expressions map to
    the same node, and the map is idempotent.
    """
    return _alpha(e, {})


def _alpha(e: Expr, memo: dict) -> Expr:
    """alpha_normal, sharing memo with other calls.

    A node's normal form depends only on its offset (B plus the number
    of enclosing binders) and on the new names that enclosing binders
    gave its free variables, so memo entries are keyed by these.  A node
    already normal at its offset, under no renaming, is its own result.
    """
    o = max(e.free_vars, default=0)
    if e._normal_at in (_ANY, o):
        return e
    out = []
    # (node, offset, renaming of the enclosing binders); a build step
    # carries None and the memo key in place of offset and renaming
    todo = [(e, o, {})]
    while todo:
        t, o, env = todo.pop()
        if o is None:
            cls = type(t)
            if cls is Sum:
                right = out.pop()
                left = out.pop()
                r = t if left is t.left and right is t.right else Sum(left, right)
            else:
                body = out.pop()
                if cls is Prefix:
                    r = t if body is t.body else Prefix(t.letter, body)
                else:
                    new = env[1] + 1
                    r = t if body is t.body and new == t.binder else Mu(new, body)
            memo[env] = r
            out.append(r)
            continue
        na = t._normal_at
        if (na == _ANY or na == o) and t.free_vars.isdisjoint(env):
            out.append(t)
            continue
        key = (t, o, tuple(map(env.get, t.free_vars)))
        r = memo.get(key)
        if r is not None:
            out.append(r)
            continue
        cls = type(t)
        if cls is Var:
            r = memo[key] = Var(env.get(t.index, t.index))
            out.append(r)
        elif cls is Sum:
            todo += ((t, None, key), (t.right, o, env), (t.left, o, env))
        elif cls is Prefix:
            todo += ((t, None, key), (t.body, o, env))
        else:
            w = t.binder
            o += 1
            todo += ((t, None, key),
                     (t.body, o, env if w == o and w not in env else {**env, w: o}))
    return out[0]


def alpha_equivalent(e1: Expr, e2: Expr) -> bool:
    return alpha_normal(e1) is alpha_normal(e2)


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
    return _subst(e, smap, {})


_VISIT, _BUILD, _THEN = 0, 1, 2


def _subst(e: Expr, smap: dict, memo: dict) -> Expr:
    """substitute with a prepared map, memoised per node in memo.

    A subterm with none of the map's variables free is returned as it
    is when it has no binder, or when the map's expressions are all
    closed, since then no binder is renamed.
    """
    if type(e) is Var:
        return smap.get(e.index, e)
    if e._normal_at == _ANY and e.free_vars.isdisjoint(smap):
        return e
    out = []
    # (op, node, map, memo of that map, its expressions are all closed);
    # a build step carries the new binder of a Mu in place of the map
    todo = [(_VISIT, e, smap, memo, not any(g.free_vars for g in smap.values()))]
    while todo:
        op, t, m, mm, closed = todo.pop()
        if op == _BUILD:
            cls = type(t)
            if cls is Sum:
                right = out.pop()
                left = out.pop()
                r = t if left is t.left and right is t.right else Sum(left, right)
            else:
                body = out.pop()
                if cls is Prefix:
                    r = t if body is t.body else Prefix(t.letter, body)
                else:
                    r = t if body is t.body and m == t.binder else Mu(m, body)
            mm[t] = r
            out.append(r)
            continue
        if op == _THEN:  # substitute m into the result just computed
            todo.append((_VISIT, out.pop(), m, mm, closed))
            continue
        cls = type(t)
        if cls is Var:
            out.append(m.get(t.index, t))
            continue
        if (closed or t._normal_at == _ANY) and t.free_vars.isdisjoint(m):
            out.append(t)
            continue
        r = mm.get(t)
        if r is not None:
            out.append(r)
        elif cls is Sum:
            todo += ((_BUILD, t, None, mm, closed),
                     (_VISIT, t.right, m, mm, closed), (_VISIT, t.left, m, mm, closed))
        elif cls is Prefix:
            todo += ((_BUILD, t, None, mm, closed), (_VISIT, t.body, m, mm, closed))
        else:
            w = t.binder
            inner, inner_memo = m, mm
            if w in m:
                inner, inner_memo = {v: g for (v, g) in m.items() if v != w}, {}
            if not inner:
                out.append(t)  # binder shadows everything that was being substituted
            elif all(w not in g.free_vars for g in inner.values()):
                todo += ((_BUILD, t, w, mm, closed), (_VISIT, t.body, inner, inner_memo, closed))
            else:
                # rename the binder before substituting under it
                avoid = set(inner)
                for g in inner.values():
                    avoid |= g.free_vars
                avoid |= t.body.free_vars
                z = 1
                while z in avoid:
                    z += 1
                todo += ((_BUILD, t, z, mm, closed),
                         (_THEN, None, inner, inner_memo,
                          not any(g.free_vars for g in inner.values())),
                         (_VISIT, t.body, {w: Var(z)}, {}, False))
    return out[0]


class StepResult(_Record):
    """One-step semantics: action derivatives and output variables."""

    # transitions holds pairs (letter, Expr), outputs variable indices
    __slots__ = ("transitions", "outputs")

    def __init__(self, transitions: frozenset, outputs: frozenset):
        _set(self, "transitions", transitions)
        _set(self, "outputs", outputs)


def step(e: Expr) -> StepResult:
    trans, outs = _step(e, {})
    return StepResult(frozenset(trans), frozenset(outs))


def _step(e: Expr, unfoldings: dict):
    """The transitions and outputs of e as two sets.

    A transition found under enclosing binders is unfolded once per
    binder, innermost first.  unfoldings maps each Mu to the map and
    memo of its unfolding substitution, and may be shared between calls.
    """
    trans, outs = set(), set()
    stack = [(e, None)]  # a node and its enclosing Mus, a linked list innermost first
    while stack:
        t, mus = stack.pop()
        cls = type(t)
        if cls is Sum:
            stack += ((t.right, mus), (t.left, mus))
        elif cls is Mu:
            stack.append((t.body, (t, mus)))
        elif cls is Prefix:
            target = t.body
            while mus is not None:
                mu, mus = mus
                unfold = unfoldings.get(mu)
                if unfold is None:
                    unfold = unfoldings[mu] = ({mu.binder: mu}, {})
                target = _subst(target, *unfold)
            trans.add((t.letter, target))
        elif cls is Var:
            while mus is not None and mus[0].binder != t.index:
                mus = mus[1]
            if mus is None:
                outs.add(t.index)
        elif cls is not Zero:
            raise TypeError(f"not an expression: {t!r}")
    return trans, outs


def _joint(exprs, max_states=MAX_STATES) -> _Joint:
    """The reachable derivatives of the given expressions as one joint,
    with one row of their starts.  A state is an interned alpha-normal
    node, shared by the expansions that reach it, and named by its
    canonical text.  Each expression may reach max_states states."""
    normal, unfoldings, text = {}, {}, {}  # memos of this call only
    number, nodes, succ, outs, starts = {}, [], [], [], []  # number: node -> state

    def state(node):
        if node not in number:
            number[node] = len(nodes)
            nodes.append(node)
            succ.append(None)
            outs.append(None)
        return number[node]

    for e in exprs:
        starts.append(state(_alpha(e, normal)))
        reached = {starts[-1]}
        queue = deque(reached)
        while queue:
            i = queue.popleft()
            if succ[i] is None:  # first reached, by this or an earlier expression
                trans, vs = _step(nodes[i], unfoldings)
                succ[i] = list({(a, state(_alpha(t, normal))) for a, t in trans})
                outs[i] = frozenset(vs)
            for _, j in succ[i]:
                if j not in reached:
                    if len(reached) >= max_states:
                        raise ExpansionBudgetError(f"expansion exceeded {max_states} states")
                    reached.add(j)
                    queue.append(j)
    return _Joint(succ, outs, [tuple(starts)], lambda i: _text(nodes[i], text))


def expand(e: Expr, max_states: int = MAX_STATES) -> Chart:
    """Chart of all reachable derivatives, states named by canonical text."""
    joint = _joint([e], max_states)
    return Chart(joint.prechart(), joint.name(joint.rows[0][0]))


# --- concrete syntax ---------------------------------------------------


def format_expr(e: Expr) -> str:
    """Print an expression; parse_expr inverts this exactly."""
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    return _text(e, {})


def _text(e: Expr, memo: dict) -> str:
    """The printed form of e; memo maps nodes to their printed forms and
    is filled in for every node below e."""
    s = memo.get(e)
    if s is not None:
        return s
    stack = [e]
    while stack:
        t = stack[-1]
        cls = type(t)
        if cls is Prefix:
            body = memo.get(t.body)
            if body is None:
                stack.append(t.body)
                continue
            s = f"{t.letter}.({body})" if type(t.body) is Sum else f"{t.letter}.{body}"
        elif cls is Sum:
            left, right = memo.get(t.left), memo.get(t.right)
            if left is None or right is None:
                stack += [c for c, s in ((t.right, right), (t.left, left)) if s is None]
                continue
            # a mu on the rightmost spine would swallow the '+', so fence it
            if _open_mu(t.left):
                left = f"({left})"
            s = f"{left}+({right})" if type(t.right) is Sum else f"{left}+{right}"
        elif cls is Mu:
            body = memo.get(t.body)
            if body is None:
                stack.append(t.body)
                continue
            s = f"mu v{t.binder}.{body}"
        elif cls is Var:
            s = f"v{t.index}"
        else:
            s = "0"
        memo[t] = s
        stack.pop()
    return memo[e]


def _open_mu(e: Expr) -> bool:
    while True:
        if isinstance(e, Mu):
            return True
        if isinstance(e, Prefix):
            e = e.body
        elif isinstance(e, Sum):
            e = e.right
        else:
            return False


def parse_expr(text: str, alphabet=None) -> Expr:
    """Parse expression text; alphabet, when given, restricts action letters.

    The grammar is ``sum := term ('+' term)*`` and ``term := 'mu' var '.'
    sum | '0' | '(' sum ')' | var | letter '.' term``.  The constructs
    still waiting for a subterm are kept on an explicit stack.
    """
    n = len(text)
    pos = 0

    def error(message, at):
        raise ExprSyntaxError(message, at)

    def skip_ws(pos):
        while pos < n and text[pos].isspace():
            pos += 1
        return pos

    def expect(ch, pos):
        if pos >= n or text[pos] != ch:
            error(f"expected {ch!r}", pos)
        return pos + 1

    def var_token(pos):
        pos = skip_ws(pos)
        if pos >= n or text[pos] != "v":
            error("expected a variable", pos)
        end = pos + 1
        while end < n and _digits(text[end]):
            end += 1
        index = _var_index(text[pos:end])
        if index is None:
            error("malformed variable token", pos)
        return index, end

    # frames: ("sum", summands so far or None), ("prefix", letter),
    # ("mu", binder), ("paren", None)
    frames = [("sum", None)]
    while True:
        pos = skip_ws(pos)
        if pos >= n:
            error("unexpected end of input", pos)
        ch = text[pos]
        if text.startswith("mu", pos) and (pos + 2 == n or text[pos + 2] != "."):
            binder, pos = var_token(pos + 2)
            pos = expect(".", skip_ws(pos))
            frames += (("mu", binder), ("sum", None))
            continue
        if ch == "(":
            pos += 1
            frames += (("paren", None), ("sum", None))
            continue
        if ch == "0":
            pos += 1
            term = ZERO
        elif ch == "v":
            if pos + 1 < n and _digits(text[pos + 1]):
                index, pos = var_token(pos)
                term = Var(index)
            else:
                error("reserved letter 'v'", pos)
        elif ch in _LETTERS:
            if alphabet is not None and ch not in alphabet:
                error(f"undeclared letter {ch!r}", pos)
            pos = expect(".", skip_ws(pos + 1))
            frames.append(("prefix", ch))
            continue
        else:
            error(f"unexpected character {ch!r}", pos)
        # a term is complete: wrap it in the frames it completes
        while True:
            kind, value = frames.pop()
            if kind == "prefix":
                term = Prefix(value, term)
                continue
            term = term if value is None else Sum(value, term)
            pos = skip_ws(pos)
            if pos < n and text[pos] == "+":
                pos += 1
                frames.append(("sum", term))
                break
            if not frames:
                if pos != n:
                    error("trailing input", pos)
                return term
            kind, value = frames.pop()
            if kind == "mu":
                term = Mu(value, term)
            else:
                pos = expect(")", pos)
