"""Checkable certificates for distance bounds between diagrams.

A certificate is a tree of proof steps whose conclusion is an upper
bound on the behavioural distance of two diagrams.  The checker
recomputes every step against the actual move structure, so a valid
certificate is evidence, not advice.  Node kinds:

  (top)                  bound 1, always valid
  (bisim)                bound 0, the two states must be bisimilar
  (weaken E C)           bound E, valid when E >= the bound of C
  (triang (C1 C2))       bound of C1 plus bound of C2, same pair
  (coupling E (...))     bound E from a pairing of the two move sets
  (decomp (C1 ... Cm))   root only: one child per payload row, max

A coupling lists triples ``(move M1 M2 C?)``.  Its left projection
must be exactly the move set of the first state, the right projection
that of the second.  A pair of equal moves costs 0; two actions with
the same letter cost half the bound of the attached child certificate
(or half of 1 when no child is given); anything else costs 1.  E must
dominate every cost.  Moves are written ``(act L "state")`` with the
target state named by its canonical expression text, or ``(out vN)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bisim import Refinement
from .chart import Prechart, move_key
from .diagram import interpret_pair
from .expr import alpha_normal, expand, format_expr
from .metric import FZERO, ONE, level_distance

__all__ = [
    "CTop", "CBisim", "CWeaken", "CTriang", "CCoupling", "CDecomp",
    "CertificateError", "CertificateSyntaxError", "SynthesisFailure",
    "parse_cert", "format_cert", "check", "synthesize", "joint_prechart",
]


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
        raise ValueError(f"bound {eps} outside [0, 1]")


@dataclass(frozen=True)
class CTop:
    pass


@dataclass(frozen=True)
class CBisim:
    pass


@dataclass(frozen=True)
class CWeaken:
    eps: Fraction
    child: object

    def __post_init__(self):
        _check_eps(self.eps)


@dataclass(frozen=True)
class CTriang:
    first: object
    second: object


@dataclass(frozen=True)
class CCoupling:
    eps: Fraction
    pairs: tuple

    def __post_init__(self):
        _check_eps(self.eps)


@dataclass(frozen=True)
class CDecomp:
    children: tuple


# --- concrete syntax -------------------------------------------------------


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, c, i))
            i += 1
        elif c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                    if j >= n or text[j] not in '"\\':
                        raise CertificateSyntaxError("bad escape", j)
                out.append(text[j])
                j += 1
            if j >= n:
                raise CertificateSyntaxError("unterminated string", i)
            tokens.append(("string", "".join(out), i))
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '()"':
                j += 1
            tokens.append(("atom", text[i:j], i))
            i = j
    return tokens


def _parse_sexpr(tokens, i):
    kind, value, pos = tokens[i]
    if kind == "(":
        items = []
        i += 1
        while i < len(tokens) and tokens[i][0] != ")":
            item, i = _parse_sexpr(tokens, i)
            items.append(item)
        if i >= len(tokens):
            raise CertificateSyntaxError("missing ')'", pos)
        return ("list", items, pos), i + 1
    if kind == ")":
        raise CertificateSyntaxError("unexpected ')'", pos)
    return (kind, value, pos), i + 1


def _expect_list(node, what):
    if node[0] != "list":
        raise CertificateSyntaxError(f"expected {what}", node[2])
    return node[1]


def _parse_fraction(node):
    if node[0] != "atom":
        raise CertificateSyntaxError("expected a rational bound", node[2])
    try:
        eps = Fraction(node[1])
    except ValueError:
        raise CertificateSyntaxError(f"bad rational {node[1]!r}", node[2])
    if not FZERO <= eps <= ONE:
        raise CertificateSyntaxError(f"bound {eps} outside [0, 1]", node[2])
    return eps


def _parse_move(node):
    items = _expect_list(node, "a move")
    if not items or items[0][0] != "atom":
        raise CertificateSyntaxError("expected 'act' or 'out'", node[2])
    head = items[0][1]
    if head == "act":
        if len(items) != 3 or items[1][0] != "atom" or items[2][0] != "string":
            raise CertificateSyntaxError(
                "expected (act LETTER \"state\")", node[2])
        letter = items[1][1]
        if len(letter) != 1 or not letter.islower() or letter == "v":
            raise CertificateSyntaxError(f"bad action letter {letter!r}", items[1][2])
        return ("act", letter, items[2][1])
    if head == "out":
        if len(items) != 2 or items[1][0] != "atom":
            raise CertificateSyntaxError("expected (out vN)", node[2])
        token = items[1][1]
        if not (token.startswith("v") and token[1:].isdigit() and int(token[1:]) >= 1):
            raise CertificateSyntaxError(f"bad variable {token!r}", items[1][2])
        return ("out", int(token[1:]))
    raise CertificateSyntaxError(f"unknown move kind {head!r}", items[0][2])


def _build_cert(node):
    items = _expect_list(node, "a certificate")
    if not items or items[0][0] != "atom":
        raise CertificateSyntaxError("expected a certificate head", node[2])
    head = items[0][1]
    if head == "top":
        if len(items) != 1:
            raise CertificateSyntaxError("(top) takes no arguments", node[2])
        return CTop()
    if head == "bisim":
        if len(items) != 1:
            raise CertificateSyntaxError("(bisim) takes no arguments", node[2])
        return CBisim()
    if head == "weaken":
        if len(items) != 3:
            raise CertificateSyntaxError("expected (weaken E C)", node[2])
        return CWeaken(_parse_fraction(items[1]), _build_cert(items[2]))
    if head == "triang":
        if len(items) != 2:
            raise CertificateSyntaxError("expected (triang (C1 C2))", node[2])
        kids = _expect_list(items[1], "two sub-certificates")
        if len(kids) != 2:
            raise CertificateSyntaxError("triang needs exactly two children",
                                         items[1][2])
        return CTriang(_build_cert(kids[0]), _build_cert(kids[1]))
    if head == "coupling":
        if len(items) != 3:
            raise CertificateSyntaxError("expected (coupling E (PAIRS))",
                                         node[2])
        eps = _parse_fraction(items[1])
        triples = []
        for entry in _expect_list(items[2], "a pair list"):
            parts = _expect_list(entry, "a move pair")
            if not (parts and parts[0][0] == "atom" and parts[0][1] == "move"
                    and len(parts) in (3, 4)):
                raise CertificateSyntaxError(
                    "expected (move M1 M2 C?)", entry[2])
            m1 = _parse_move(parts[1])
            m2 = _parse_move(parts[2])
            child = _build_cert(parts[3]) if len(parts) == 4 else None
            triples.append((m1, m2, child))
        return CCoupling(eps, tuple(triples))
    if head == "decomp":
        if len(items) != 2:
            raise CertificateSyntaxError("expected (decomp (C1 ... Cm))",
                                         node[2])
        kids = _expect_list(items[1], "sub-certificates")
        return CDecomp(tuple(_build_cert(k) for k in kids))
    raise CertificateSyntaxError(f"unknown certificate head {head!r}",
                                 items[0][2])


def parse_cert(text):
    tokens = _tokenize(text)
    if not tokens:
        raise CertificateSyntaxError("empty certificate", 0)
    node, i = _parse_sexpr(tokens, 0)
    if i != len(tokens):
        raise CertificateSyntaxError("trailing input", tokens[i][2])
    return _build_cert(node)


def _escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _format_move(m):
    if m[0] == "act":
        return f'(act {m[1]} "{_escape(m[2])}")'
    return f"(out v{m[1]})"


def format_cert(cert) -> str:
    if isinstance(cert, CTop):
        return "(top)"
    if isinstance(cert, CBisim):
        return "(bisim)"
    if isinstance(cert, CWeaken):
        return f"(weaken {cert.eps} {format_cert(cert.child)})"
    if isinstance(cert, CTriang):
        return (f"(triang ({format_cert(cert.first)}"
                f" {format_cert(cert.second)}))")
    if isinstance(cert, CCoupling):
        entries = []
        for m1, m2, child in cert.pairs:
            inner = f"(move {_format_move(m1)} {_format_move(m2)}"
            if child is not None:
                inner += f" {format_cert(child)}"
            entries.append(inner + ")")
        return f"(coupling {cert.eps} ({' '.join(entries)}))"
    if isinstance(cert, CDecomp):
        return f"(decomp ({' '.join(format_cert(c) for c in cert.children)}))"
    raise TypeError(f"not a certificate: {cert!r}")


# --- checking --------------------------------------------------------------


def joint_prechart(exprs, max_states=10000):
    """One prechart holding the expansions of all given expressions.

    States are canonical expression texts, so expansions overlap
    wherever the behaviours agree syntactically.
    """
    states = set()
    trans = set()
    outs = set()
    seeds = []
    for e in exprs:
        c = expand(e, max_states=max_states)
        seeds.append(c.start)
        states |= set(c.states)
        trans |= set(c.trans)
        outs |= set(c.outs)
    return Prechart(frozenset(states), frozenset(trans), frozenset(outs)), seeds


def _joint_rows(f, g, max_states):
    """The joint prechart of two diagrams' payload rows, and the pair of
    start states of each row."""
    m1, m2 = interpret_pair(f, g)
    rows1, rows2 = m1.payload.rows, m2.payload.rows
    joint, seeds = joint_prechart(list(rows1) + list(rows2),
                                  max_states=max_states)
    m = len(rows1)
    return joint, list(zip(seeds[:m], seeds[m:]))


class _Checker:
    def __init__(self, prechart):
        self.beta = prechart.beta()
        self.refinement = Refinement(prechart)

    def root(self, cert, pairs, path="cert"):
        if isinstance(cert, CWeaken):
            inner = self.root(cert.child, pairs, path + ".weaken")
            if cert.eps < inner:
                raise CertificateError(
                    f"weakening to {cert.eps} below certified {inner}", path)
            return cert.eps
        if isinstance(cert, CDecomp):
            if len(cert.children) != len(pairs):
                raise CertificateError(
                    f"decomp has {len(cert.children)} children for "
                    f"{len(pairs)} rows", path)
            bound = FZERO
            for i, (child, pair) in enumerate(zip(cert.children, pairs)):
                b = self.pair(child, pair, f"{path}.decomp[{i + 1}]")
                if b > bound:
                    bound = b
            return bound
        if len(pairs) == 1:
            return self.pair(cert, pairs[0], path)
        raise CertificateError(
            f"expected a decomp over {len(pairs)} rows", path)

    def pair(self, cert, pair, path):
        x, y = pair
        if isinstance(cert, CTop):
            return ONE
        if isinstance(cert, CBisim):
            if self.refinement.level(x, y) != math.inf:
                raise CertificateError(
                    f"states {x!r} and {y!r} are not bisimilar", path)
            return FZERO
        if isinstance(cert, CWeaken):
            inner = self.pair(cert.child, pair, path + ".weaken")
            if cert.eps < inner:
                raise CertificateError(
                    f"weakening to {cert.eps} below certified {inner}", path)
            return cert.eps
        if isinstance(cert, CTriang):
            b1 = self.pair(cert.first, pair, path + ".triang[1]")
            b2 = self.pair(cert.second, pair, path + ".triang[2]")
            return min(ONE, b1 + b2)
        if isinstance(cert, CCoupling):
            return self.coupling(cert, x, y, path)
        if isinstance(cert, CDecomp):
            raise CertificateError("decomp is only allowed at the root", path)
        raise TypeError(f"not a certificate: {cert!r}")

    def coupling(self, cert, x, y, path):
        bx = self.beta.get(x)
        by = self.beta.get(y)
        if bx is None or by is None:
            missing = x if bx is None else y
            raise CertificateError(f"unknown state {missing!r}", path)
        left = frozenset(m1 for m1, _, _ in cert.pairs)
        right = frozenset(m2 for _, m2, _ in cert.pairs)
        if left != bx:
            raise CertificateError(
                f"left projection differs from the moves of {x!r}", path)
        if right != by:
            raise CertificateError(
                f"right projection differs from the moves of {y!r}", path)
        worst = FZERO
        for i, (m1, m2, child) in enumerate(cert.pairs):
            where = f"{path}.move[{i + 1}]"
            if m1 == m2:
                if child is not None:
                    raise CertificateError(
                        "equal moves do not take a sub-certificate", where)
                continue
            if m1[0] == "act" and m2[0] == "act" and m1[1] == m2[1]:
                inner = ONE if child is None else \
                    self.pair(child, (m1[2], m2[2]), where)
                cost = inner / 2
            else:
                if child is not None:
                    raise CertificateError(
                        "mismatched moves do not take a sub-certificate",
                        where)
                cost = ONE
            if cost > worst:
                worst = cost
        if cert.eps < worst:
            raise CertificateError(
                f"coupling bound {cert.eps} below required {worst}", path)
        return cert.eps


def check(cert, f, g, max_states=10000) -> Fraction:
    """Validate a certificate for two diagrams; the certified bound."""
    joint, pairs = _joint_rows(f, g, max_states)
    return _Checker(joint).root(cert, pairs)


# --- synthesis -------------------------------------------------------------


class _Synthesizer:
    """Tight certificates, read off the split levels of one refinement.

    The p-th Kleene iterate of the distance is 2^-min(p, level) on
    states that split and 0 on bisimilar ones, and the iteration is
    stable from the largest finite level on.
    """

    def __init__(self, prechart):
        self.beta = prechart.beta()
        self.refinement = Refinement(prechart)
        self.stable = self.refinement.max_level()
        self.memo = {}

    def distance(self, x, y, p):
        """The p-th Kleene iterate of the distance between x and y."""
        level = self.refinement.level(x, y)
        return level_distance(level if level == math.inf else min(p, level))

    def cost(self, m1, m2, p):
        if m1 == m2:
            return FZERO
        if m1[0] == "act" and m2[0] == "act" and m1[1] == m2[1]:
            return self.distance(m1[2], m2[2], p - 1) / 2
        return ONE

    def cert(self, x, y, p):
        if self.refinement.level(x, y) == math.inf:
            return CBisim()
        if p == 0 or self.distance(x, y, p) == ONE:
            return CTop()
        key = (x, y, p)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        bx = sorted(self.beta[x], key=move_key)
        by = sorted(self.beta[y], key=move_key)
        chosen = {}
        for m1 in bx:
            m2 = min(by, key=lambda m: (self.cost(m1, m, p), move_key(m)))
            chosen[(m1, m2)] = None
        for m2 in by:
            m1 = min(bx, key=lambda m: (self.cost(m, m2, p), move_key(m)))
            chosen[(m1, m2)] = None
        worst = FZERO
        triples = []
        for m1, m2 in sorted(chosen, key=lambda c: (move_key(c[0]), move_key(c[1]))):
            cost = self.cost(m1, m2, p)
            if cost > worst:
                worst = cost
            child = None
            if m1 != m2 and m1[0] == "act" and m2[0] == "act" and m1[1] == m2[1]:
                child = self.cert(m1[2], m2[2], p - 1)
            triples.append((m1, m2, child))
        assert worst == self.distance(x, y, p)
        node = CCoupling(worst, tuple(triples))
        self.memo[key] = node
        return node


def synthesize(f, g, eps=None, max_states=10000):
    """Certificate that the distance between f and g is at most eps.

    With eps omitted the certificate is tight.  Requesting a bound
    below the actual distance raises SynthesisFailure carrying it.
    """
    joint, pairs = _joint_rows(f, g, max_states)
    syn = _Synthesizer(joint)
    distance = level_distance(
        min((syn.refinement.level(x, y) for x, y in pairs), default=math.inf))
    if eps is not None:
        eps = Fraction(eps)
        _check_eps(eps)
        if eps < distance:
            raise SynthesisFailure(
                f"requested bound {eps} is below the distance {distance}",
                distance)
    cores = [syn.cert(x, y, syn.stable) for x, y in pairs]
    root = cores[0] if len(pairs) == 1 else CDecomp(tuple(cores))
    if eps is not None and eps > distance:
        root = CWeaken(eps, root)
    return root
