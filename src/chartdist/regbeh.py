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

Composition and tensor of paired interfaces are defined by wiring
morphisms (rb_id, rb_sym, rb_oplus), rb_compose and rb_trace, but
int_compose and int_tensor build none of them.  Their wirings only
permute four blocks of payload rows and four blocks of variables, so
they are written directly as lists of indices: each payload row is
renamed once, and the rows are reordered.  The loop of int_compose is
solved by eliminating the looped rows one at a time, last first
(Bekic), without the back-substitution of rb_dagger: the trace keeps
only the other rows, whose own variables occur nowhere.  The rows come
out alpha-equivalent to the definitional composite, so their canonical
texts, and with them the state names of expansions and certificates,
do not depend on which of the two is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import Expr, Mu, Var, free_vars, substitute
from .metric import FZERO, bd_expressions

__all__ = [
    "RbMorphism", "IntMorphism", "RbTypeError",
    "rb_id", "rb_zero", "rb_compose", "rb_pair", "rb_oplus",
    "rb_codiagonal", "rb_sym", "rb_inl", "rb_inr",
    "rb_dagger", "rb_trace", "homset_distance",
    "int_id", "int_sym", "int_unit", "int_counit",
    "int_compose", "int_tensor", "embed_n", "int_distance",
]


class RbTypeError(TypeError):
    """Interface mismatch between composed morphisms."""


@dataclass(frozen=True)
class RbMorphism:
    """An m-tuple of behaviours over n variables, i.e. a morphism m -> n."""

    dom: int
    cod: int
    rows: tuple

    def __post_init__(self):
        if self.dom < 0 or self.cod < 0:
            raise ValueError("negative interface")
        if len(self.rows) != self.dom:
            raise ValueError(f"expected {self.dom} rows, got {len(self.rows)}")
        for i, r in enumerate(self.rows):
            if not isinstance(r, Expr):
                raise TypeError(f"row {i + 1} is not an expression")
            fv = free_vars(r)
            if fv and max(fv) > self.cod:
                raise ValueError(
                    f"row {i + 1} has free variables {sorted(fv)} beyond v{self.cod}")


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

    Row i recurses through variable v(p+i).  A single row is solved by
    binding its own variable; larger systems eliminate the last row
    first, substitute its solution into the rest, solve those, and
    back-substitute.
    """
    n = f.dom
    p = f.cod - n
    if p < 0:
        raise RbTypeError(f"dagger needs cod >= dom, got {f.dom}->{f.cod}")
    if n == 0:
        return RbMorphism(0, p, ())
    if n == 1:
        return RbMorphism(1, p, (_solve(p + 1, f.rows[0]),))
    last = _solve(p + n, f.rows[-1])
    rest = tuple(substitute(r, [(p + n, last)]) for r in f.rows[:-1])
    solved = rb_dagger(RbMorphism(n - 1, p + n - 1, rest))
    back = [(p + i, solved.rows[i - 1]) for i in range(1, n)]
    return RbMorphism(n, p, solved.rows + (substitute(last, back),))


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
        d = bd_expressions(r1, r2)
        if d > worst:
            worst = d
    return worst


# --- paired interfaces (forward wires, backward wires) -------------------


@dataclass(frozen=True)
class IntMorphism:
    """Morphism (k,l) -> (m,n): payload k+n -> l+m over all in/out ports."""

    dom_pair: tuple
    cod_pair: tuple
    payload: RbMorphism

    def __post_init__(self):
        k, l = self.dom_pair
        m, n = self.cod_pair
        if min(k, l, m, n) < 0:
            raise ValueError("negative interface")
        if (self.payload.dom, self.payload.cod) != (k + n, l + m):
            raise RbTypeError(
                f"payload {self.payload.dom}->{self.payload.cod} does not fit "
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


def _renamed(rows, wiring):
    """Rows with each variable v(j+1) renamed to v(wiring[j]+1)."""
    bindings = [(j + 1, Var(w + 1)) for j, w in enumerate(wiring) if w != j]
    return [substitute(r, bindings) for r in rows]


def int_compose(f: IntMorphism, g: IntMorphism) -> IntMorphism:
    """Plug f's right boundary into g's left one and trace the loop.

    For f: (k,l) -> (m,n) and g: (m,n) -> (p,q), the payloads of f and
    g side by side have four blocks of rows, k | n | m | q, and four of
    variables, l | m | n | p.  The wiring pre reorders the rows to
    k | q | n | m and post renames the variables to l | p | n | m, so
    the k+q kept rows come first and looped row k+q+t feeds back
    through variable v(l+p+t+1): f's backward inputs read g's backward
    outputs, and g's forward inputs read f's forward outputs.  The
    definitional composite is the trace of n+m wires of
    pre ; (f (+) g) ; post, with the wirings built from rb_id, rb_sym
    and rb_oplus.  Here the n+m looped rows are solved one at a time,
    last first, each substituted into the rows before it (Bekic
    elimination).  rb_trace runs all of rb_dagger instead: it also
    solves the k+q kept rows, a no-op because their own variables occur
    nowhere, and back-substitutes into the looped rows, which it then
    drops.  The rows are alpha-equivalent to the definitional composite,
    so their canonical texts, and the state names of every expansion
    and certificate, are the same.
    """
    if f.cod_pair != g.dom_pair:
        raise RbTypeError(f"cannot compose {f.cod_pair} with {g.dom_pair}")
    k, l = f.dom_pair
    m, n = f.cod_pair
    p, q = g.cod_pair
    pre = [*range(k), *range(k + n + m, k + n + m + q), *range(k, k + n + m)]
    post = [*range(l), *range(l + p + n, l + p + n + m),
            *range(l + p, l + p + n), *range(l, l + p)]
    rows = (_renamed(f.payload.rows, post[:l + m])
            + _renamed(g.payload.rows, post[l + m:]))
    rows = [rows[i] for i in pre]
    # looped row k+q+t feeds back through variable v(l+p+t+1)
    for t in range(n + m - 1, -1, -1):
        v = l + p + t + 1
        solution = _solve(v, rows.pop())
        rows = [substitute(r, [(v, solution)]) if v in free_vars(r) else r
                for r in rows]
    return IntMorphism(f.dom_pair, g.cod_pair,
                       RbMorphism(k + q, l + p, tuple(rows)))


def int_tensor(f: IntMorphism, g: IntMorphism) -> IntMorphism:
    """Side by side: (k,l)x(k2,l2) -> (m,n)x(m2,n2).

    The rows k | n | k2 | n2 are reordered to k | k2 | n | n2 and the
    variables l | m | l2 | m2 renamed to l | l2 | m | m2.
    """
    k, l = f.dom_pair
    m, n = f.cod_pair
    k2, l2 = g.dom_pair
    m2, n2 = g.cod_pair
    pre = [*range(k), *range(k + n, k + n + k2), *range(k, k + n),
           *range(k + n + k2, k + n + k2 + n2)]
    post = [*range(l), *range(l + l2, l + l2 + m), *range(l, l + l2),
            *range(l + l2 + m, l + l2 + m + m2)]
    rows = (_renamed(f.payload.rows, post[:l + m])
            + _renamed(g.payload.rows, post[l + m:]))
    payload = RbMorphism(k + k2 + n + n2, l + l2 + m + m2,
                         tuple(rows[i] for i in pre))
    return IntMorphism((k + k2, l + l2), (m + m2, n + n2), payload)


def embed_n(f: RbMorphism) -> IntMorphism:
    """Forward-only embedding: f: m -> n becomes (m,0) -> (n,0)."""
    return IntMorphism((f.dom, 0), (f.cod, 0), f)


def int_distance(f: IntMorphism, g: IntMorphism) -> Fraction:
    if (f.dom_pair, f.cod_pair) != (g.dom_pair, g.cod_pair):
        raise RbTypeError("distance requires equal interfaces")
    return homset_distance(f.payload, g.payload)
