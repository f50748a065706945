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
recursion depth grows with the size of an expression.

Expansion runs on nameless nodes (de Bruijn, Indag. Math. 1972; the
locally nameless form of Charguéraud, JAR 2012) interned in a table that
lives for one call: a bound variable is an index, a free one keeps its
name, since free variables are the outputs, and alpha-equivalent
derivatives are one node.  A state is a locally closed node; unfolding
a mu substitutes closed nodes for loose indices, so no binder is renamed
and nothing is shifted.  A state's text is printed only where it is
named: the canonical text of its named view, whose binder at depth k is
v(B+k+1), B its largest free variable.
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


class _Ref(ref):
    __slots__ = ("key",)


def _forget(r):
    # weakref callback: the node is gone, so its entry goes too
    if _interned.get(r.key) is r:
        del _interned[r.key]


def _intern(key, node, free, binds):
    _set(node, "free_vars", free)
    _set(node, "_binds", binds)
    r = _interned[key] = _Ref(node, _forget)
    r.key = key
    return node


class Expr:
    """Base class of the five node classes.

    Nodes are immutable and interned.  ``free_vars`` is the frozenset of
    free variable indices; ``_binds`` says whether the node holds a mu.
    """

    __slots__ = ("free_vars", "_binds", "__weakref__")
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
        return r and r() or _intern(key, object.__new__(cls), frozenset(), False)


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
            _intern(key, node, frozenset((index,)), False)
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
            _intern(key, node, body.free_vars, body._binds)
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
            _intern(key, node, lf if rf <= lf else rf if lf <= rf else lf | rf,
                    left._binds or right._binds)
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
            _intern(key, node, free - {binder} if binder in free else free, True)
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
    the same node, and the map is idempotent: it is the named view of
    e's nameless node.
    """
    table = _Table()
    return _named(table, _nameless(table, e))


def alpha_equivalent(e1: Expr, e2: Expr) -> bool:
    table = _Table()
    return _nameless(table, e1) == _nameless(table, e2)


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
    if not e._binds and smap.keys().isdisjoint(e.free_vars):
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
        if (closed or not t._binds) and m.keys().isdisjoint(t.free_vars):
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
    """The action derivatives and output variables of e.  A transition
    found under enclosing binders is unfolded once per binder, innermost
    first."""
    trans, outs = set(), set()
    unfoldings = {}  # Mu -> the map and memo of its unfolding substitution
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
    return StepResult(frozenset(trans), frozenset(outs))


# --- nameless nodes ------------------------------------------------------
#
# A nameless node is a key tuple whose first field is its kind and whose
# children are ids in its table: (_ZERO,), (_FREE, N) for vN, (_BOUND, i)
# for the variable of the i-th enclosing mu counted from 0 innermost,
# (_PREFIX, letter, body), (_SUM, left, right) and (_MU, body).

_ZERO, _FREE, _BOUND, _PREFIX, _SUM, _MU = range(6)


class _Table:
    """The nameless nodes of one call: ids maps a key to its id, and keys,
    loose and high are indexed by id.  loose is the number of mus above a
    node that its bound indices reach, 0 when it is locally closed; high
    is its largest free variable, 0 if it has none."""

    __slots__ = ("ids", "keys", "loose", "high")

    def __init__(self):
        self.ids, self.keys, self.loose, self.high = {}, [], [], []


def _node(table, key):
    """The id of the nameless node key, interned in table on first use."""
    i = table.ids.get(key)
    if i is None:
        i = table.ids[key] = len(table.keys)
        table.keys.append(key)
        kind, loose, high = key[0], table.loose, table.high
        if kind == _SUM:
            loose.append(max(loose[key[1]], loose[key[2]]))
            high.append(max(high[key[1]], high[key[2]]))
        elif kind == _PREFIX or kind == _MU:
            loose.append(max(loose[key[-1]] - (kind == _MU), 0))
            high.append(high[key[-1]])
        else:
            loose.append(key[1] + 1 if kind == _BOUND else 0)
            high.append(key[1] if kind == _FREE else 0)
    return i


def _nameless(table, e: Expr) -> int:
    """The id of e's nameless node in table.  Sums and mus are memoised,
    so a subterm shared by several parents is converted once per context;
    a chain of prefixes is walked once per parent."""
    memo = {}  # (Sum or Mu, index of each free variable, -1 if free) -> id
    out = []
    # (node, depth of the mu that binds each name, depth); a build step
    # carries None and the memo key, if any, in place of names and depth
    todo = [(e, {}, 0)]
    while todo:
        t, env, d = todo.pop()
        cls = type(t)
        if env is None:
            if cls is Sum:
                right = out.pop()
                key = (_SUM, out.pop(), right)
            else:
                key = (_PREFIX, t.letter, out.pop()) if cls is Prefix else (_MU, out.pop())
            out.append(_node(table, key))
            if d is not None:
                memo[d] = out[-1]
        elif cls is Prefix:
            todo += ((t, None, None), (t.body, env, d))
        elif cls is Var:
            v = t.index
            out.append(_node(table, (_BOUND, d - 1 - env[v]) if v in env else (_FREE, v)))
        elif cls is Zero:
            out.append(_node(table, (_ZERO,)))
        elif cls is Sum or cls is Mu:
            key = (t, *[d - 1 - env[v] if v in env else -1 for v in t.free_vars])
            i = memo.get(key)
            if i is not None:
                out.append(i)
            elif cls is Sum:
                todo += ((t, None, key), (t.right, env, d), (t.left, env, d))
            else:
                todo += ((t, None, key), (t.body, {**env, t.binder: d}, d + 1))
        else:
            raise TypeError(f"not an expression: {t!r}")
    return out[0]


def _named(table, n: int) -> Expr:
    """The named view of the locally closed node n as an Expr: its binder
    at nesting depth k is v(B+k+1), with B its largest free variable."""
    keys = table.keys
    memo = {}  # (node, B plus its depth) -> its view
    out = []
    todo = [(n, table.high[n])]  # a node and its offset; ~node builds it
    while todo:
        m, o = todo.pop()
        if m < 0:
            key = keys[~m]
            kind = key[0]
            if kind == _SUM:
                right = out.pop()
                r = Sum(out.pop(), right)
            else:
                r = Prefix(key[1], out.pop()) if kind == _PREFIX else Mu(o + 1, out.pop())
            memo[~m, o] = r
            out.append(r)
            continue
        r = memo.get((m, o))
        if r is not None:
            out.append(r)
            continue
        key = keys[m]
        kind = key[0]
        if kind == _SUM:
            todo += ((~m, o), (key[2], o), (key[1], o))
        elif kind == _PREFIX:
            todo += ((~m, o), (key[2], o))
        elif kind == _MU:
            todo += ((~m, o), (key[1], o + 1))
        else:
            out.append(ZERO if kind == _ZERO else Var(key[1] if kind == _FREE else o - key[1]))
    return out[0]


def _text(v: int, memo: dict, keys: list) -> str:
    """The canonical text of the named view v of a nameless node in keys,
    printed as format_expr prints its Expr.  The view of node m at offset
    o is v = o * len(keys) + m: a mu binds v(o+1), and a bound index i is
    v(o-i).  memo maps views to their texts and is filled in for every
    view below v."""
    s = memo.get(v)
    if s is not None:
        return s
    n = len(keys)
    stack = [v]
    while stack:
        t = stack[-1]
        o, m = divmod(t, n)
        base = t - m  # a child at the same offset is base plus its node
        key = keys[m]
        kind = key[0]
        if kind == _PREFIX:
            body = memo.get(base + key[2])
            if body is None:
                stack.append(base + key[2])
                continue
            s = f"{key[1]}.({body})" if keys[key[2]][0] == _SUM else f"{key[1]}.{body}"
        elif kind == _SUM:
            left, right = memo.get(base + key[1]), memo.get(base + key[2])
            if left is None or right is None:
                stack += [base + c for c, s in ((key[2], right), (key[1], left)) if s is None]
                continue
            spine = keys[key[1]]  # fenced as format_expr fences an open mu
            while spine[0] == _PREFIX or spine[0] == _SUM:
                spine = keys[spine[-1]]
            if spine[0] == _MU:
                left = f"({left})"
            s = f"{left}+({right})" if keys[key[2]][0] == _SUM else f"{left}+{right}"
        elif kind == _MU:
            body = memo.get(base + n + key[1])
            if body is None:
                stack.append(base + n + key[1])
                continue
            s = f"mu v{o + 1}.{body}"
        elif kind == _ZERO:
            s = "0"
        else:
            s = f"v{key[1] if kind == _FREE else o - key[1]}"
        memo[t] = s
        stack.pop()
    return memo[v]


def _open(table, n: int, env: tuple) -> int:
    """n with each loose index, i under d mus of n, replaced by env[i - d].
    The nodes of env are locally closed, so nothing is shifted or renamed,
    and a subterm whose indices stay below its depth is kept as it is."""
    keys, loose = table.keys, table.loose
    if not loose[n]:
        return n
    done = {}  # (node, depth) -> its opened node
    out = []
    todo = [(n, 0)]  # a node and the mus of n above it; ~node builds it
    while todo:
        m, d = todo.pop()
        if m < 0:
            key = keys[~m]
            kind = key[0]
            if kind == _SUM:
                right = out.pop()
                key = (_SUM, out.pop(), right)
            else:
                key = (_PREFIX, key[1], out.pop()) if kind == _PREFIX else (_MU, out.pop())
            out.append(_node(table, key))
            done[~m, d] = out[-1]
            continue
        if loose[m] <= d:
            out.append(m)
            continue
        r = done.get((m, d))
        if r is not None:
            out.append(r)
            continue
        key = keys[m]
        kind = key[0]
        if kind == _SUM:
            todo += ((~m, d), (key[2], d), (key[1], d))
        elif kind == _PREFIX:
            todo += ((~m, d), (key[2], d))
        elif kind == _MU:
            todo += ((~m, d), (key[1], d + 1))
        else:  # a bound index past the mus of n
            out.append(env[key[1] - d])
    return out[0]


def _moves(table, n: int):
    """The transitions (letter, node) and the outputs of the locally closed
    node n, as two sets.  Each mu is unfolded by the closing substitution
    carried down the stack: the tuple of the closed enclosing mus,
    innermost first, which the target of a prefix is opened with."""
    keys = table.keys
    trans, outs = set(), set()
    todo = [(n, ())]
    while todo:
        m, env = todo.pop()
        key = keys[m]
        kind = key[0]
        if kind == _SUM:
            todo += ((key[2], env), (key[1], env))
        elif kind == _MU:
            todo.append((key[1], (_open(table, m, env), *env)))
        elif kind == _PREFIX:
            trans.add((key[1], _open(table, key[2], env)))
        elif kind == _FREE:
            outs.add(key[1])
    return trans, outs


def _joint(exprs, max_states=MAX_STATES) -> _Joint:
    """The reachable derivatives of the given expressions as one joint,
    with one row of their starts.  A state is a nameless node, shared by
    the expansions that reach it, and named by the canonical text of its
    named view.  Each expression may reach max_states states."""
    table = _Table()
    number, nodes, succ, outs, starts = {}, [], [], [], []  # number: node -> state

    def state(node):
        if node not in number:
            number[node] = len(nodes)
            nodes.append(node)
            succ.append(None)
            outs.append(None)
        return number[node]

    for e in exprs:
        starts.append(state(_nameless(table, e)))
        reached = {starts[-1]}
        queue = deque(reached)
        while queue:
            i = queue.popleft()
            if succ[i] is None:  # first reached, by this or an earlier expression
                trans, vs = _moves(table, nodes[i])
                succ[i] = [(a, state(t)) for a, t in trans]
                outs[i] = frozenset(vs)
            for _, j in succ[i]:
                if j not in reached:
                    if len(reached) >= max_states:
                        raise ExpansionBudgetError(f"expansion exceeded {max_states} states")
                    reached.add(j)
                    queue.append(j)
    keys, high, text = table.keys, table.high, {}  # text: memo of the names made
    return _Joint(succ, outs, [tuple(starts)],
                  lambda i: _text(high[nodes[i]] * len(keys) + nodes[i], text, keys))


def expand(e: Expr, max_states: int = MAX_STATES) -> Chart:
    """Chart of all reachable derivatives, states named by canonical text."""
    joint = _joint([e], max_states)
    return Chart(joint.prechart(), joint.name(joint.rows[0][0]))


# --- concrete syntax ---------------------------------------------------


def format_expr(e: Expr) -> str:
    """Print an expression; parse_expr inverts this exactly."""
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    memo = {}  # node -> its printed form
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
