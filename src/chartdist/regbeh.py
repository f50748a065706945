"""Tuples of behaviours as morphisms, with composition by substitution.

A morphism m -> n is an m-tuple of expressions whose free variables lie
in {v1..vn}; composition substitutes the target tuple for those
variables simultaneously.  The category carries a dagger (least
solutions of guarded systems, computed by eliminating one row at a
time) and an equivalent feedback trace.  On top of it sits a compact
closed category of paired interfaces: objects are pairs (m, n) of
forward/backward wire counts, and a morphism (k,l) -> (m,n) is a
payload k+n -> l+m mapping all inputs to all outputs.  Distances extend
row-wise by taking the maximum.

Composition and tensor of paired interfaces are the definitional
composites: wiring morphisms built from rb_id, rb_sym and rb_oplus
around the two payloads, and for composition a trace of the plugged
wires.  Their payload rows grow with the nesting of a diagram; this
module is the reference semantics that the tests and the benchmark's
answers use, and no command runs it: ``diagram.interpret`` imports it
when called.  ``leaf_morphism`` interprets each leaf of a diagram.
"""

from __future__ import annotations

from fractions import Fraction

from .chart import _Record, _set
from .diagram import Act, Cap, Copy, Cup, Del, Gen, Id, Merge, _word_object
from .expr import ZERO, Expr, Mu, Prefix, Sum, Var, free_vars, substitute
from .metric import FZERO, bd_stratified

__all__ = [
    "RbMorphism", "IntMorphism", "RbTypeError",
    "rb_id", "rb_zero", "rb_compose", "rb_pair", "rb_oplus",
    "rb_codiagonal", "rb_sym", "rb_inl", "rb_inr",
    "rb_dagger", "rb_trace", "homset_distance",
    "int_id", "int_sym", "int_unit", "int_counit",
    "int_compose", "int_tensor", "embed_n", "int_distance", "leaf_morphism",
]


class RbTypeError(TypeError):
    """Interface mismatch between composed morphisms."""


class RbMorphism(_Record):
    """An m-tuple of behaviours over n variables, i.e. a morphism m -> n."""

    __slots__ = ("dom", "cod", "rows")

    def __init__(self, dom: int, cod: int, rows: tuple):
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        _set(self, "rows", rows)
        if dom < 0 or cod < 0:
            raise ValueError("negative interface")
        if len(rows) != dom:
            raise ValueError(f"expected {dom} rows, got {len(rows)}")
        for i, r in enumerate(rows):
            if not isinstance(r, Expr):
                raise TypeError(f"row {i + 1} is not an expression")
            fv = free_vars(r)
            if fv and max(fv) > cod:
                raise ValueError(
                    f"row {i + 1} has free variables {sorted(fv)} beyond v{cod}")


def rb_id(n: int) -> RbMorphism:
    return RbMorphism(n, n, tuple(Var(i) for i in range(1, n + 1)))


def rb_zero(n: int) -> RbMorphism:
    """The empty tuple into n variables."""
    return RbMorphism(0, n, ())


def rb_compose(f: RbMorphism, g: RbMorphism) -> RbMorphism:
    """f ; g substitutes g's rows for f's variables."""
    if f.cod != g.dom:
        raise RbTypeError(f"cannot compose {f.dom}->{f.cod} with {g.dom}->{g.cod}")
    bindings = list(enumerate(g.rows, start=1))
    return RbMorphism(f.dom, g.cod,
                      tuple(substitute(r, bindings) for r in f.rows))


def rb_pair(f: RbMorphism, g: RbMorphism) -> RbMorphism:
    """Row concatenation <f, g>: k+l -> m for f: k -> m, g: l -> m."""
    if f.cod != g.cod:
        raise RbTypeError(f"pairing needs equal codomains, got {f.cod} and {g.cod}")
    return RbMorphism(f.dom + g.dom, f.cod, f.rows + g.rows)


def rb_oplus(f: RbMorphism, g: RbMorphism) -> RbMorphism:
    """Juxtaposition k+m -> l+n; g's variables are shifted past f's."""
    shift = [(i, Var(f.cod + i)) for i in range(1, g.cod + 1)]
    shifted = tuple(substitute(r, shift) for r in g.rows)
    return RbMorphism(f.dom + g.dom, f.cod + g.cod, f.rows + shifted)


def rb_codiagonal(n: int) -> RbMorphism:
    """Merge two variable blocks: n+n -> n."""
    return rb_pair(rb_id(n), rb_id(n))


def rb_sym(m: int, n: int) -> RbMorphism:
    """Block swap m+n -> n+m."""
    rows = tuple(Var(n + i) for i in range(1, m + 1)) + tuple(Var(i) for i in range(1, n + 1))
    return RbMorphism(m + n, n + m, rows)


def rb_inl(k: int, l: int) -> RbMorphism:
    return RbMorphism(k, k + l, tuple(Var(i) for i in range(1, k + 1)))


def rb_inr(k: int, l: int) -> RbMorphism:
    return RbMorphism(l, k + l, tuple(Var(k + i) for i in range(1, l + 1)))


def _solve(k: int, body: Expr) -> Expr:
    # least solution of x = body; when x does not occur it is body itself
    return Mu(k, body) if k in free_vars(body) else body


def rb_dagger(f: RbMorphism) -> RbMorphism:
    """Canonical solution of the system x_i = f_i for f: n -> p+n.

    Row i recurses through variable v(p+i).  The rows are eliminated
    last first, each solved by binding its own variable and substituted
    into the rows before it; then each solution, first to last, takes
    the final rows before it for their variables.
    """
    n = f.dom
    p = f.cod - n
    if p < 0:
        raise RbTypeError(f"dagger needs cod >= dom, got {f.dom}->{f.cod}")
    rows, eliminated = list(f.rows), []
    for k in range(n, 0, -1):
        last = _solve(p + k, rows.pop())
        rows = [substitute(r, [(p + k, last)]) for r in rows]
        eliminated.append(last)
    solved = []
    for last in reversed(eliminated):
        solved.append(substitute(last, list(enumerate(solved, start=p + 1))))
    return RbMorphism(n, p, tuple(solved))


def rb_trace(g: RbMorphism, n: int) -> RbMorphism:
    """Feedback of the last n wires: p+n -> q+n becomes p -> q."""
    if n < 0 or g.dom < n or g.cod < n:
        raise RbTypeError(f"cannot trace {n} wires of {g.dom}->{g.cod}")
    p = g.dom - n
    q = g.cod - n
    reroute = rb_pair(rb_inl(q, p + n), RbMorphism(
        n, q + p + n, tuple(Var(q + p + i) for i in range(1, n + 1))))
    return rb_compose(rb_inl(p, n), rb_dagger(rb_compose(g, reroute)))


def homset_distance(f: RbMorphism, g: RbMorphism) -> Fraction:
    """Largest row-wise behavioural distance (0 for empty tuples)."""
    if (f.dom, f.cod) != (g.dom, g.cod):
        raise RbTypeError("distance requires equal interfaces")
    worst = FZERO
    for r1, r2 in zip(f.rows, g.rows):
        d = bd_stratified(r1, r2)
        if d > worst:
            worst = d
    return worst


# --- paired interfaces (forward wires, backward wires) -------------------


class IntMorphism(_Record):
    """Morphism (k,l) -> (m,n): payload k+n -> l+m over all in/out ports."""

    __slots__ = ("dom_pair", "cod_pair", "payload")

    def __init__(self, dom_pair: tuple, cod_pair: tuple, payload: RbMorphism):
        _set(self, "dom_pair", dom_pair)
        _set(self, "cod_pair", cod_pair)
        _set(self, "payload", payload)
        k, l = dom_pair
        m, n = cod_pair
        if min(k, l, m, n) < 0:
            raise ValueError("negative interface")
        if (payload.dom, payload.cod) != (k + n, l + m):
            raise RbTypeError(
                f"payload {payload.dom}->{payload.cod} does not fit "
                f"({k},{l})->({m},{n}); expected {k + n}->{l + m}")


def int_id(pair) -> IntMorphism:
    m, n = pair
    return IntMorphism(pair, pair, rb_sym(m, n))


def int_sym(a, b) -> IntMorphism:
    """The swap (m,n)x(p,q): ports pass straight through to the other block."""
    m, n = a
    p, q = b
    rows = (
        tuple(Var(n + q + p + i) for i in range(1, m + 1))
        + tuple(Var(n + q + j) for j in range(1, p + 1))
        + tuple(Var(n + j) for j in range(1, q + 1))
        + tuple(Var(i) for i in range(1, n + 1))
    )
    payload = RbMorphism(m + p + q + n, n + q + p + m, rows)
    return IntMorphism((m + p, n + q), (p + m, q + n), payload)


def int_unit(pair) -> IntMorphism:
    """Bent wires (0,0) -> (m,n)x(n,m)."""
    m, n = pair
    return IntMorphism((0, 0), (m + n, n + m), rb_sym(n, m))


def int_counit(pair) -> IntMorphism:
    """Bent wires (n,m)x(m,n) -> (0,0)."""
    m, n = pair
    return IntMorphism((n + m, m + n), (0, 0), rb_sym(n, m))


def int_compose(f: IntMorphism, g: IntMorphism) -> IntMorphism:
    """Plug f's right boundary into g's left one and trace the loop.

    For f: (k,l) -> (m,n) and g: (m,n) -> (p,q), the wirings put the
    k+q kept rows of f (+) g first and its n+m plugged rows last, and
    rename the variables so that f's backward inputs read g's backward
    outputs and g's forward inputs read f's forward outputs; rb_trace
    then solves the n+m plugged rows.
    """
    if f.cod_pair != g.dom_pair:
        raise RbTypeError(f"cannot compose {f.cod_pair} with {g.dom_pair}")
    k, l = f.dom_pair
    m, n = f.cod_pair
    p, q = g.cod_pair
    pre = rb_compose(
        rb_oplus(rb_oplus(rb_id(k), rb_sym(q, n)), rb_id(m)),
        rb_oplus(rb_oplus(rb_id(k), rb_id(n)), rb_sym(q, m)),
    )
    post = rb_compose(
        rb_compose(
            rb_oplus(rb_oplus(rb_id(l), rb_id(m)), rb_sym(n, p)),
            rb_oplus(rb_oplus(rb_id(l), rb_sym(m, p)), rb_id(n)),
        ),
        rb_oplus(rb_oplus(rb_id(l), rb_id(p)), rb_sym(m, n)),
    )
    looped = rb_compose(rb_compose(pre, rb_oplus(f.payload, g.payload)), post)
    return IntMorphism(f.dom_pair, g.cod_pair, rb_trace(looped, n + m))


def int_tensor(f: IntMorphism, g: IntMorphism) -> IntMorphism:
    """Side by side: (k,l)x(k2,l2) -> (m,n)x(m2,n2).

    The wirings reorder the rows k | n | k2 | n2 to k | k2 | n | n2 and
    the variables l | m | l2 | m2 to l | l2 | m | m2.
    """
    k, l = f.dom_pair
    m, n = f.cod_pair
    k2, l2 = g.dom_pair
    m2, n2 = g.cod_pair
    pre = rb_oplus(rb_oplus(rb_id(k), rb_sym(k2, n)), rb_id(n2))
    post = rb_oplus(rb_oplus(rb_id(l), rb_sym(m, l2)), rb_id(m2))
    payload = rb_compose(rb_compose(pre, rb_oplus(f.payload, g.payload)), post)
    return IntMorphism((k + k2, l + l2), (m + m2, n + n2), payload)


def embed_n(f: RbMorphism) -> IntMorphism:
    """Forward-only embedding: f: m -> n becomes (m,0) -> (n,0)."""
    return IntMorphism((f.dom, 0), (f.cod, 0), f)


def int_distance(f: IntMorphism, g: IntMorphism) -> Fraction:
    if (f.dom_pair, f.cod_pair) != (g.dom_pair, g.cod_pair):
        raise RbTypeError("distance requires equal interfaces")
    return homset_distance(f.payload, g.payload)


# --- diagram leaves ----------------------------------------------------------

# the interpretations of the constant generators, frozen
_GENERATORS = {
    Copy: embed_n(RbMorphism(1, 2, (Sum(Var(1), Var(2)),))),
    Del: embed_n(RbMorphism(1, 0, (ZERO,))),
    Merge: embed_n(RbMorphism(2, 1, (Var(1), Var(1)))),
    Gen: embed_n(rb_zero(1)),
    Cap: int_counit((1, 0)),
    Cup: int_unit((1, 0)),
}


def leaf_morphism(t) -> IntMorphism:
    """The interpretation of a diagram leaf: a generator, act(a), id(w)
    or sym(u, w)."""
    m = _GENERATORS.get(type(t))
    if m is not None:
        return m
    if type(t) is Act:
        return embed_n(RbMorphism(1, 1, (Prefix(t.letter, Var(1)),)))
    if type(t) is Id:
        return int_id(_word_object(t.word))
    return int_sym(_word_object(t.left), _word_object(t.right))
