"""Checkable certificates for distance bounds between behaviours.

A certificate is a tree of proof steps whose conclusion is an upper
bound on the behavioural distance of two expressions, two charts or two
diagrams.  The checker recomputes every step against the actual move
structure, so a valid certificate is evidence, not advice.  Each node
carries the bound it claims from the moment it is built:

  (top)                  bound 1, always valid
  (bisim)                bound 0, the two states must be bisimilar
  (weaken E C)           bound E, valid when E >= the bound of C
  (coupling E (...))     bound E from a pairing of the two move sets
  (decomp (C1 ... Cm))   root only: one child per payload row, max

There is no triangle rule: the sum of two certificates of one pair
bounds nothing that weakening either of them does not.

A coupling lists triples ``(move M1 M2 C?)``.  Its left projection
must be exactly the move set of the first state, the right projection
that of the second.  A pair of equal moves costs 0; two actions with
the same letter cost half the bound of the attached child certificate
(or half of 1 when no child is given); anything else costs 1.  E must
dominate every cost.  Moves are written ``(act L "state")`` with the
target state named by its canonical expression text (for charts, by
its name, and for diagrams by its number in the open chart, tagged
``L:`` or ``R:``), or ``(out vN)``.

Reading, printing, checking and synthesis walk a certificate with an
explicit stack, so none of them recurses.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .bisim import _refine_pair, joint_pair, joint_prechart
from .chart import MAX_STATES, _digits, _ratio, _Record, _set, _valid_letter, _var_index

__all__ = [
    "CTop", "CBisim", "CWeaken", "CCoupling", "CDecomp",
    "CertificateError", "CertificateSyntaxError", "SynthesisFailure",
    "parse_cert", "format_cert", "check", "synthesize", "joint_prechart",
    "joint_pair",
]

ONE = Fraction(1)
FZERO = Fraction(0)


class CertificateError(Exception):
    """A certificate step that does not hold."""

    def __init__(self, message, path="cert"):
        self.path = path
        super().__init__(f"{message} (at {path})")


class CertificateSyntaxError(Exception):
    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class SynthesisFailure(Exception):
    """Raised when the requested bound is below the actual distance."""

    def __init__(self, message, distance):
        self.distance = distance
        super().__init__(message)


def _check_eps(eps):
    if not isinstance(eps, Fraction):
        raise TypeError("bound must be a Fraction")
    if not FZERO <= eps <= ONE:
        raise ValueError(f"bound {_ratio(eps)} outside [0, 1]")


def _integer(digits: str) -> int:
    """The int of a string of ASCII digits, read 600 at a time, below
    CPython's int-to-text digit limit."""
    n = 0
    for i in range(0, len(digits), 600):
        n = n * 10 ** len(digits[i:i + 600]) + int(digits[i:i + 600])
    return n


def _bound(eps) -> Fraction:
    """eps, a rational or its text such as "3/4", as a Fraction; ValueError
    when it is no rational or lies outside [0, 1].  Text of the form p or
    p/q in ASCII digits is read in pieces, so that it has no digit limit."""
    p, slash, q = eps.strip().partition("/") if isinstance(eps, str) else ("", "", "")
    try:
        if _digits(p) and (_digits(q) or not slash):
            eps = Fraction(_integer(p), _integer(q or "1"))
        else:
            eps = Fraction(eps)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {eps!r}") from None
    _check_eps(eps)
    return eps


class _Node(_Record):
    """A certificate node.  Its ``bound`` is set when it is built, in a
    slot of this base: the fields are the slots each node class lists,
    so ==, hash and repr leave the bound out.  They give the values that
    the record base gives, but walk the node's tree with a stack, each
    shared node once, so that no certificate is too deep for them."""

    __slots__ = ("bound",)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo, seen = [(self, other)], set()
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            kids_a, kids_b = [], []
            if _fields(a, kids_a) != _fields(b, kids_b):
                return False
            todo += zip(kids_a, kids_b)
        return True

    def __hash__(self):
        done = {}  # id of a walked node -> its stand-in
        for node in _post_order(self):
            done[id(node)] = _Stand(hash(_swap(node._values(), lambda n: done[id(n)])))
        return done[id(self)].value

    def __repr__(self):
        done = {}  # id of a walked node -> its stand-in
        for node in _post_order(self):
            fields = ", ".join([f"{name}={_swap(getattr(node, name), lambda n: done[id(n)])!r}"
                                for name in node.__slots__])
            done[id(node)] = _Stand(f"{type(node).__qualname__}({fields})")
        return done[id(self)].value


class _Stand:
    """A walked node's hash or text, which stands in for the node among
    its parent's fields, so that the fields hash or print as they do with
    the node and meet no node."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value

    def __repr__(self):
        return self.value


def _swap(value, stand):
    """value with stand(node) in place of each node in it, its tuples
    rebuilt, bottom up with a stack."""
    built, todo = [], [(value, False)]
    while todo:
        x, ready = todo.pop()
        if ready:  # the items of the tuple x are the last len(x) built
            k = len(built) - len(x)
            built[k:] = [tuple(built[k:])]
        elif isinstance(x, _Node):
            built.append(stand(x))
        elif type(x) is tuple:
            todo.append((x, True))
            todo += [(item, False) for item in reversed(x)]
        else:
            built.append(x)
    return built[0]


def _fields(node, kids):
    """The class of node and its fields, with the class of each node among
    them in its place; each such node is appended to kids, in order."""
    def stand(kid):
        kids.append(kid)
        return kid.__class__
    return node.__class__, _swap(node._values(), stand)


def _post_order(root) -> list:
    """The nodes of the certificate root, each shared node once and each
    after the nodes among its fields."""
    order, seen, todo = [], set(), [(root, False)]
    while todo:
        node, ready = todo.pop()
        if ready:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            kids = []
            _fields(node, kids)
            todo.append((node, True))
            todo += [(kid, False) for kid in kids]
    return order


class CTop(_Node):
    __slots__ = ()

    def __init__(self):
        _set(self, "bound", ONE)


class CBisim(_Node):
    __slots__ = ()

    def __init__(self):
        _set(self, "bound", FZERO)


class CWeaken(_Node):
    __slots__ = ("eps", "child")

    def __init__(self, eps: Fraction, child):
        _set(self, "eps", eps)
        _set(self, "child", child)
        _check_eps(eps)
        _set(self, "bound", eps)


class CCoupling(_Node):
    __slots__ = ("eps", "pairs")

    def __init__(self, eps: Fraction, pairs: tuple):
        _set(self, "eps", eps)
        _set(self, "pairs", pairs)
        _check_eps(eps)
        _set(self, "bound", eps)


class CDecomp(_Node):
    __slots__ = ("children",)

    def __init__(self, children: tuple):
        _set(self, "children", children)
        _set(self, "bound", max((c.bound for c in children), default=FZERO))


# --- concrete syntax -------------------------------------------------------

# a string up to its closing quote; '\' escapes '"' and '\' only
_OPEN_STRING = re.compile(r'"[^"\\]*(?:\\["\\][^"\\]*)*')
# a token is a parenthesis, a string, an atom or a '"' that starts no
# well-formed string; only blanks lie between tokens
_TOKEN = re.compile(rf'[()]|{_OPEN_STRING.pattern}"|[^\s()"]+|"')
_ESCAPE = re.compile(r'\\(["\\])')

# the kind of a list by its keyword; any other list is a plain "list"
_KINDS = {"top": "cert", "bisim": "cert", "weaken": "cert", "coupling": "cert",
          "decomp": "cert", "act": "move", "out": "move", "move": "pair"}


def _string_error(text, pos):
    """The error for a '"' at pos that starts no well-formed string."""
    end = _OPEN_STRING.match(text, pos).end()
    if end < len(text):  # stopped at a backslash
        return CertificateSyntaxError("bad escape", end + 1)
    return CertificateSyntaxError("unterminated string", pos)


def _want(value, kind, what):
    """The node, move or items of a value read whole, when it is of the
    kind its place wants."""
    got, obj, pos, head = value
    if got == kind:
        return obj
    if got in ("atom", "string") or kind == "list":
        raise CertificateSyntaxError(f"expected {what}", pos)
    if kind == "pair":
        raise CertificateSyntaxError("expected (move M1 M2 C?)", pos)
    if head is None:
        raise CertificateSyntaxError(
            "expected a certificate head" if kind == "cert" else "expected 'act' or 'out'",
            pos)
    noun = "certificate head" if kind == "cert" else "move kind"
    raise CertificateSyntaxError(f"unknown {noun} {head[1]!r}", head[2])


def _parse_fraction(value):
    if value[0] != "atom":
        raise CertificateSyntaxError("expected a rational bound", value[2])
    try:
        return _bound(value[1])
    except ValueError as e:
        raise CertificateSyntaxError(str(e), value[2]) from None


def _build(head, args, pos):
    """The node, move or move pair of a list with keyword head, read at
    offset pos, whose other items are already read."""
    if head in ("top", "bisim"):
        if args:
            raise CertificateSyntaxError(f"({head}) takes no arguments", pos)
        return CTop() if head == "top" else CBisim()
    if head == "weaken":
        if len(args) != 2:
            raise CertificateSyntaxError("expected (weaken E C)", pos)
        return CWeaken(_parse_fraction(args[0]), _want(args[1], "cert", "a certificate"))
    if head == "coupling":
        if len(args) != 2:
            raise CertificateSyntaxError("expected (coupling E (PAIRS))", pos)
        eps = _parse_fraction(args[0])
        entries = _want(args[1], "list", "a pair list")
        return CCoupling(eps, tuple(_want(e, "pair", "a move pair") for e in entries))
    if head == "decomp":
        if len(args) != 1:
            raise CertificateSyntaxError("expected (decomp (C1 ... Cm))", pos)
        kids = _want(args[0], "list", "sub-certificates")
        return CDecomp(tuple(_want(k, "cert", "a certificate") for k in kids))
    if head == "move":
        if len(args) not in (2, 3):
            raise CertificateSyntaxError("expected (move M1 M2 C?)", pos)
        m1, m2 = (_want(m, "move", "a move") for m in args[:2])
        return m1, m2, _want(args[2], "cert", "a certificate") if len(args) == 3 else None
    if head == "act":
        if len(args) != 2 or args[0][0] != "atom" or args[1][0] != "string":
            raise CertificateSyntaxError('expected (act LETTER "state")', pos)
        if not _valid_letter(args[0][1]):
            raise CertificateSyntaxError(f"bad action letter {args[0][1]!r}", args[0][2])
        return "act", args[0][1], args[1][1]
    if len(args) != 1 or args[0][0] != "atom":
        raise CertificateSyntaxError("expected (out vN)", pos)
    v = _var_index(args[0][1])
    if v is None:
        raise CertificateSyntaxError(f"bad variable {args[0][1]!r}", args[0][2])
    return "out", v


def parse_cert(text):
    """Read a certificate in one pass: each list becomes its node, move or
    move pair when its ')' is read."""
    opened = []  # per open '(': its offset and the values read inside it
    root = None
    for m in _TOKEN.finditer(text):
        token, pos = m.group(), m.start()
        if root is not None:
            raise CertificateSyntaxError("trailing input", pos)
        if token == "(":
            opened.append((pos, []))
            continue
        if token == ")":
            if not opened:
                raise CertificateSyntaxError("unexpected ')'", pos)
            pos, items = opened.pop()
            head = items[0] if items and items[0][0] == "atom" else None
            kind = _KINDS.get(head[1], "list") if head else "list"
            obj = items if kind == "list" else _build(head[1], items[1:], pos)
            value = (kind, obj, pos, head)
        elif token[0] != '"':
            value = ("atom", token, pos, None)
        elif len(token) > 1:
            value = ("string", _ESCAPE.sub(r"\1", token[1:-1]), pos, None)
        else:
            raise _string_error(text, pos)
        if opened:
            opened[-1][1].append(value)
        else:
            root = value
    if opened:
        raise CertificateSyntaxError("missing ')'", opened[-1][0])
    if root is None:
        raise CertificateSyntaxError("empty certificate", 0)
    return _want(root, "cert", "a certificate")


def _escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _format_move(m):
    if m[0] == "act":
        return f'(act {m[1]} "{_escape(m[2])}")'
    return f"(out v{m[1]})"


def format_cert(cert) -> str:
    parts = []
    todo = [cert]  # nodes still to print, and the text between them
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, (CTop, CBisim)):
            parts.append("(top)" if isinstance(item, CTop) else "(bisim)")
        elif isinstance(item, CWeaken):
            todo += [")", item.child, f"(weaken {_ratio(item.eps)} "]
        elif isinstance(item, CCoupling):
            pieces = [f"(coupling {_ratio(item.eps)} ("]
            for i, (m1, m2, child) in enumerate(item.pairs):
                pieces.append(f"{' ' if i else ''}(move {_format_move(m1)} {_format_move(m2)}")
                pieces += [] if child is None else [" ", child]
                pieces.append(")")
            todo += reversed(pieces + ["))"])
        elif isinstance(item, CDecomp):
            pieces = ["(decomp ("]
            for i, child in enumerate(item.children):
                pieces += [" ", child] if i else [child]
            todo += reversed(pieces + ["))"])
        else:
            raise TypeError(f"not a certificate: {item!r}")
    return "".join(parts)


# --- checking --------------------------------------------------------------


def _premises(node, pair, path, joint, refinement):
    """Check the rule of one node against its children's bounds.  Returns
    what is left to check after it, in order: each child with its pair of
    state numbers and path, and each failure that is to be reported only
    once the children before it have passed.  pair is None at the root,
    where a decomp splits the rows of the joint."""
    if isinstance(node, CWeaken):
        todo = [(node.child, pair, path + ".weaken")]
        if node.eps < node.child.bound:
            todo.append(CertificateError(
                f"weakening to {_ratio(node.eps)} below certified {_ratio(node.child.bound)}",
                path))
        return todo
    rows = joint.rows
    if pair is None:
        if isinstance(node, CDecomp):
            if len(node.children) != len(rows):
                raise CertificateError(
                    f"decomp has {len(node.children)} children for {len(rows)} rows", path)
            return [(child, row, f"{path}.decomp[{i}]")
                    for i, (child, row) in enumerate(zip(node.children, rows), start=1)]
        if len(rows) != 1:
            raise CertificateError(f"expected a decomp over {len(rows)} rows", path)
        pair = rows[0]
    x, y = pair
    if isinstance(node, CTop):
        return []
    if isinstance(node, CBisim):
        if refinement.level(x, y) != math.inf:
            raise CertificateError(
                f"states {joint.name(x)!r} and {joint.name(y)!r} are not bisimilar", path)
        return []
    if isinstance(node, CDecomp):
        raise CertificateError("decomp is only allowed at the root", path)
    if not isinstance(node, CCoupling):
        raise TypeError(f"not a certificate: {node!r}")
    # the moves of x and y as printed, each with the move it names
    mx, my = ({_named(joint, m): m for m in _moves(joint, q)} for q in (x, y))
    for side, q, moves, named in (("left", x, [m1 for m1, _, _ in node.pairs], mx),
                                  ("right", y, [m2 for _, m2, _ in node.pairs], my)):
        if frozenset(moves) != named.keys():
            raise CertificateError(
                f"{side} projection differs from the moves of {joint.name(q)!r}", path)
    todo, worst = [], FZERO
    for i, (m1, m2, child) in enumerate(node.pairs, start=1):
        where = f"{path}.move[{i}]"
        # equal moves cost 0, one letter half the child's bound (1 if none), else 1
        if _needs_child(m1, m2):
            if child is not None:
                todo.append((child, (mx[m1][2], my[m2][2]), where))
            cost = (ONE if child is None else child.bound) / 2
        else:
            if child is not None:
                todo.append(CertificateError(f"{'equal' if m1 == m2 else 'mismatched'} moves "
                                             "do not take a sub-certificate", where))
            cost = FZERO if m1 == m2 else ONE
        worst = max(worst, cost)
    if node.eps < worst:
        todo.append(CertificateError(
            f"coupling bound {_ratio(node.eps)} below required {_ratio(worst)}", path))
    return todo


def _moves(joint, i) -> frozenset:
    """The beta-moves of state i of a joint: ("act", a, j) and ("out", v)."""
    return frozenset([("act", a, j) for a, j in joint.succ[i]]
                     + [("out", v) for v in joint.outs[i]])


def _named(joint, m):
    """A move as a certificate prints it, its target named."""
    return ("act", m[1], joint.name(m[2])) if m[0] == "act" else m


def check(cert, f, g, max_states=MAX_STATES) -> Fraction:
    """Validate a certificate for two inputs of one kind (see joint_pair);
    the certified bound.  Nodes are checked depth first, left to right,
    and the first failure is raised."""
    joint, refinement = _refine_pair(f, g, max_states)
    todo = [(cert, None, "cert")]
    while todo:
        item = todo.pop()
        if isinstance(item, CertificateError):
            raise item
        todo += reversed(_premises(*item, joint, refinement))
    return cert.bound


# --- synthesis -------------------------------------------------------------


class _Synthesizer:
    """Tight certificates, read off the split levels of one refinement.

    The p-th Kleene iterate of the distance is 2^-min(p, level) on
    states that split and 0 on bisimilar ones.  A row starts at its own
    level and each coupling certifies its children one iterate down, so
    every pair certified at iterate p has level >= p: its bound is 2^-p,
    and (top) when p is 0.
    """

    def __init__(self, joint, refinement):
        self.joint = joint
        self.refinement = refinement
        self.memo = {}

    def rank(self, m1, m2, p):
        """0 for equal moves or one letter into bisimilar targets, 1 for
        one letter into targets still related at iterate p - 1, else 2."""
        if m1 == m2:
            return 0
        if not _needs_child(m1, m2):
            return 2
        level = self.refinement.level(m1[2], m2[2])
        return 0 if level == math.inf else 1 if level >= p - 1 else 2

    def move_pairs(self, x, y, p):
        """Each move of x with a cheapest move of y and each move of y
        with a cheapest move of x, in move order; a pair of level >= p
        always has one of rank at most 1."""
        def key(m):  # actions by letter and target name, then outputs
            return (0, m[1], self.joint.name(m[2])) if m[0] == "act" else (1, m[1])

        bx = sorted(_moves(self.joint, x), key=key)
        by = sorted(_moves(self.joint, y), key=key)
        chosen = {}
        for m1 in bx:
            chosen[(m1, min(by, key=lambda m: (self.rank(m1, m, p), key(m))))] = None
        for m2 in by:
            chosen[(min(bx, key=lambda m: (self.rank(m, m2, p), key(m))), m2)] = None
        assert all(self.rank(m1, m2, p) <= 1 for m1, m2 in chosen)
        return sorted(chosen, key=lambda c: (key(c[0]), key(c[1])))

    def cert(self, x, y, p):
        """The certificate of (x, y) at iterate p <= their level; a
        coupling is built once the certificates of its children are."""
        todo = [((x, y, p), None)]  # a key, with its move pairs once its children are queued
        while todo:
            key, pairs = todo.pop()
            kx, ky, kp = key
            if pairs is not None:
                self.memo[key] = CCoupling(level_distance(kp), tuple(
                    (_named(self.joint, m1), _named(self.joint, m2),
                     self.memo[(m1[2], m2[2], kp - 1)] if _needs_child(m1, m2) else None)
                    for m1, m2 in pairs))
            elif key in self.memo:
                continue
            elif self.refinement.level(kx, ky) == math.inf:
                self.memo[key] = CBisim()
            elif kp == 0:
                self.memo[key] = CTop()
            else:
                pairs = self.move_pairs(kx, ky, kp)
                todo.append((key, pairs))
                todo += (((m1[2], m2[2], kp - 1), None)
                         for m1, m2 in pairs if _needs_child(m1, m2))
        return self.memo[(x, y, p)]


def _needs_child(m1, m2):
    """Two different actions with one letter: their targets need a certificate."""
    return m1 != m2 and m1[0] == "act" == m2[0] and m1[1] == m2[1]


def level_distance(level) -> Fraction:
    """The distance 2^-level of a stratification level; 0 for math.inf."""
    if level == math.inf:
        return FZERO
    return Fraction(1, 2 ** level)


def synthesize(f, g, eps=None, max_states=MAX_STATES):
    """Certificate that the distance between f and g, two inputs of one
    kind (see joint_pair), is at most eps.

    With eps omitted the certificate is tight.  A bound that is no
    rational or lies outside [0, 1] raises ValueError before the inputs
    are joined; a bound below the actual distance raises
    SynthesisFailure carrying it.
    """
    if eps is not None:
        eps = _bound(eps)
    joint, refinement = _refine_pair(f, g, max_states)
    pairs = joint.rows
    levels = [refinement.level(x, y) for x, y in pairs]
    distance = level_distance(min(levels, default=math.inf))
    if eps is not None and eps < distance:
        raise SynthesisFailure(
            f"requested bound {_ratio(eps)} is below the distance {_ratio(distance)}",
            distance)
    syn = _Synthesizer(joint, refinement)
    cores = [syn.cert(x, y, level) for (x, y), level in zip(pairs, levels)]
    root = cores[0] if len(pairs) == 1 else CDecomp(tuple(cores))
    if eps is not None and eps > distance:
        root = CWeaken(eps, root)
    return root
