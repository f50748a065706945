"""Expressions for regular behaviours.

Five constructors: 0 (empty behaviour), variables vN, action prefix
a.e, sum e+f, and recursion mu vN.e.  The module provides parsing and
printing, capture-avoiding simultaneous substitution, and expansion of
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
derivatives are one node.  A state is a locally closed node, and a mu
is unfolded where the one-step walk meets it: the mu, locally closed,
takes the place of the index it binds, so no binder is renamed and
nothing is shifted.  A state's text is printed only where it is named:
the canonical text of its named view, whose binder at depth k is
v(B+k+1), B its largest free variable.

One reader, _shift_reduce, holds the grammar, reads the tokens of one
pattern and reduces each construct by one of five builders.  parse_expr
builds Expr nodes with it; _read interns nameless nodes in a table as it
reduces, so a query reads its texts straight into the nodes that
expansion uses and builds no Expr.
"""

from __future__ import annotations

import re
from collections import deque
from weakref import ref

from .chart import (
    _LETTER_SET, MAX_STATES, Chart, ExpansionBudgetError, _Joint, _set, _valid_letter,
    _var_index,
)

__all__ = [
    "Expr", "Zero", "Var", "Prefix", "Sum", "Mu", "ZERO",
    "ExprSyntaxError", "ExpansionBudgetError",
    "free_vars", "substitute", "expand", "parse_expr", "format_expr",
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


def _open(table, n: int, mu: int) -> int:
    """n, the body of the locally closed mu, with mu in place of the index
    that mu binds, i under i mus of n: the unfolding of mu.  mu is locally
    closed, so nothing is shifted or renamed, and a subterm whose indices
    stay below its depth is kept as it is."""
    keys, loose = table.keys, table.loose
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
        else:  # the index d, which mu binds
            out.append(mu)
    return out[0]


def _moves(table, n: int):
    """The transitions (letter, node) of the locally closed node n, as the
    keys of a dict in the order the walk finds them, and its outputs, as
    a set.  Node ids are deterministic, so that order is too.  Every node
    the walk meets is locally closed: a mu is unfolded by _open where the
    walk meets it, and the target of a prefix is taken as it is.  A mu
    met again adds no move that its first unfolding does not, so each is
    unfolded once, and a variable of its own that no prefix guards, as v1
    in mu v1.(v1+v2), adds nothing."""
    keys = table.keys
    trans, outs, unfolded = {}, set(), set()
    todo = [n]
    while todo:
        m = todo.pop()
        key = keys[m]
        kind = key[0]
        if kind == _SUM:
            todo += (key[2], key[1])
        elif kind == _MU and m not in unfolded:
            unfolded.add(m)
            todo.append(_open(table, key[1], m))
        elif kind == _PREFIX:
            trans[key[1], key[2]] = None
        elif kind == _FREE:
            outs.add(key[1])
    return trans, outs


def _joint(table, roots, max_states=MAX_STATES) -> _Joint:
    """The reachable derivatives of the given nodes of table as one joint,
    with one row of their starts, numbered breadth-first from the starts
    in turn, each state's successors in the order _moves finds them.  A
    state is a nameless node, shared by the expansions that reach it, and
    named by the canonical text of its named view.  Each root may reach
    max_states states."""
    number, nodes, succ, outs, starts = {}, [], [], [], []  # number: node -> state

    def state(node):
        if node not in number:
            number[node] = len(nodes)
            nodes.append(node)
            succ.append(None)
            outs.append(None)
        return number[node]

    for root in roots:
        starts.append(state(root))
        reached = {starts[-1]}
        queue = deque(reached)
        while queue:
            i = queue.popleft()
            if succ[i] is None:  # first reached, by this or an earlier root
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


class _Read:
    """An expression as a query holds it: the table it was read into, which
    the other input of the query shares, and its node's id there."""

    __slots__ = ("table", "node")

    def __init__(self, table, node):
        self.table, self.node = table, node

    def chart(self, max_states=MAX_STATES) -> Chart:
        """Chart of all reachable derivatives, states named by canonical text."""
        joint = _joint(self.table, [self.node], max_states)
        return Chart(joint.prechart(), joint.name(joint.rows[0][0]))


def expand(e: Expr, max_states: int = MAX_STATES) -> Chart:
    """Chart of all reachable derivatives, states named by canonical text."""
    table = _Table()
    return _Read(table, _nameless(table, e)).chart(max_states)


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


# a token is the keyword mu where no '.' follows it, a variable or any
# other character but a blank; findall skips the blanks between tokens
_TOKEN = re.compile(r"mu(?!\.)|v[0-9]+|\S")


def _shift_reduce(text, alphabet, zero, var, prefix, add, mu):
    """The one reader of the grammar that parse_expr states, over the
    tokens of _TOKEN.  Each construct is reduced, once its subterms are
    read, by its builder: zero(), var(index, i), prefix(letter, body),
    add(left, right) or mu(binder, body).  i is the de Bruijn index of the
    variable, the number of mus between it and the innermost mu that
    binds its name, or -1 when it is free.  The constructs still waiting
    for a subterm are kept on an explicit stack, so nothing recurses.  A
    token's position in text is worked out only for an error."""
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end

    def error(message, i):
        starts = [m.start() for m in _TOKEN.finditer(text)]
        raise ExprSyntaxError(message, (starts + [len(text)])[i])

    def variable(i):  # the index of the variable at token i
        index = _var_index(tokens[i])
        if index is None:
            error("malformed variable token" if tokens[i][:1] == "v" else "expected a variable", i)
        return index

    i = 0
    # scope: binder name -> the depth of the innermost open mu of that name,
    # or None; depth: the number of open mus
    scope, depth = {}, 0
    # frames: ("sum", summands so far or None), ("prefix", letter),
    # ("mu", (binder, its scope entry outside this mu)), ("paren", None)
    frames = [("sum", None)]
    while True:
        token = tokens[i]
        if token == "mu":
            binder = variable(i + 1)
            if tokens[i + 2] != ".":
                error("expected '.'", i + 2)
            i += 3
            frames += (("mu", (binder, scope.get(binder))), ("sum", None))
            scope[binder] = depth
            depth += 1
            continue
        if token == "(":
            i += 1
            frames += (("paren", None), ("sum", None))
            continue
        if token == "0":
            term = zero()
        elif token == "v":
            error("reserved letter 'v'", i)
        elif token[:1] == "v":
            index = variable(i)
            d = scope.get(index)
            term = var(index, -1 if d is None else depth - 1 - d)
        elif token in _LETTER_SET:
            if alphabet is not None and token not in alphabet:
                error(f"undeclared letter {token!r}", i)
            if tokens[i + 1] != ".":
                error("expected '.'", i + 1)
            i += 2
            frames.append(("prefix", token))
            continue
        else:
            error(f"unexpected character {token!r}" if token else "unexpected end of input", i)
        i += 1
        # a term is complete: wrap it in the frames it completes
        while True:
            kind, value = frames.pop()
            if kind == "prefix":
                term = prefix(value, term)
                continue
            term = term if value is None else add(value, term)
            if tokens[i] == "+":
                i += 1
                frames.append(("sum", term))
                break
            if not frames:
                if tokens[i]:
                    error("trailing input", i)
                return term
            kind, value = frames.pop()
            if kind == "mu":
                binder, outer = value
                term = mu(binder, term)
                depth -= 1
                scope[binder] = outer
            elif tokens[i] != ")":
                error("expected ')'", i)
            else:
                i += 1


def parse_expr(text: str, alphabet=None) -> Expr:
    """Parse expression text; alphabet, when given, restricts action letters.

    The grammar is ``sum := term ('+' term)*`` and ``term := 'mu' var '.'
    sum | '0' | '(' sum ')' | var | letter '.' term``.
    """
    return _shift_reduce(text, alphabet, Zero, lambda index, i: Var(index), Prefix, Sum, Mu)


def _read(text: str, table, alphabet=None) -> int:
    """The id in table of the nameless node of expression text, read in one
    pass that builds no Expr: the id, and the error, that
    _nameless(table, parse_expr(text, alphabet)) gives.  Both intern in
    post-order, left to right, so they give the same ids."""
    return _shift_reduce(
        text, alphabet, lambda: _node(table, (_ZERO,)),
        lambda index, i: _node(table, (_FREE, index) if i < 0 else (_BOUND, i)),
        lambda letter, body: _node(table, (_PREFIX, letter, body)),
        lambda left, right: _node(table, (_SUM, left, right)),
        lambda binder, body: _node(table, (_MU, body)))
