"""Shared generators and slow reference oracles for the test suite.

The oracles here recompute results from first principles (pair
elimination for bisimilarity, plain sup-inf iteration in Fractions for
the distance) so the fast implementations have something independent
to disagree with.
"""

import math
from fractions import Fraction
from pathlib import Path

from chartdist import (
    Act, Chart, Copy, Del, Gen, Id, IntMorphism, Merge, Mu, Partition,
    Prechart, Prefix, RbTypeError, Seq, Sum, Tensor, Var, Zero,
    disjoint_union, empty_chart, from_expression, interpret, loop1,
    parse_term, prefix_chart, rb_compose, rb_id, rb_oplus, rb_sym, rb_trace, rec_chart,
    sum_chart, variable_chart, RbMorphism,
)
from chartdist.chart import state_key

LETTERS = "ab"
OUTVARS = (1, 2)


# ---------------------------------------------------------------------------
# random object generators (all take an explicit seeded rng)

def rand_expr(rng, maxvar=2, depth=3, _scope=None):
    scope = list(range(1, maxvar + 1)) if _scope is None else _scope
    pick = rng.randrange(6) if depth > 0 else rng.randrange(2)
    if pick == 1 and not scope:
        pick = 0
    if pick == 0:
        return Zero()
    if pick == 1:
        return Var(rng.choice(scope))
    if pick in (2, 3):
        return Prefix(rng.choice(LETTERS), rand_expr(rng, maxvar, depth - 1, scope))
    if pick == 4:
        return Sum(rand_expr(rng, maxvar, depth - 1, scope),
                   rand_expr(rng, maxvar, depth - 1, scope))
    v = max(scope, default=0) + rng.randint(1, 2)
    return Mu(v, rand_expr(rng, maxvar, depth - 1, scope + [v]))


def rand_chart(rng, max_states=8, letters=LETTERS, outvars=OUTVARS):
    n = rng.randint(1, max_states)
    states = frozenset(range(n))
    trans = frozenset(
        (q, a, r)
        for q in range(n) for a in letters for r in range(n)
        if rng.random() < 0.18
    )
    outs = frozenset(
        (q, v) for q in range(n) for v in outvars if rng.random() < 0.25
    )
    return Chart(Prechart(states, trans, outs), 0)


def rand_rb(rng, dom, cod, depth=2):
    rows = tuple(rand_expr(rng, maxvar=cod, depth=depth) for _ in range(dom))
    return RbMorphism(dom, cod, rows)


def _merge_all(m):
    # '>'**m -> '>', m >= 1
    t = Id(">")
    for _ in range(m - 1):
        t = Seq(Tensor(Id(">"), t), Merge())
    return t


def _copy_all(n):
    # '>' -> '>'**n, n >= 1
    if n == 1:
        return Id(">")
    return Seq(Copy(), Tensor(Id(">"), _copy_all(n - 1)))


def _bridge(rng, m, n):
    """Any forward term '>'**m -> '>'**n, with a random action thrown in."""
    t = Gen() if m == 0 else _merge_all(m)
    if rng.random() < 0.6:
        t = Seq(t, Act(rng.choice(LETTERS)))
    if n == 0:
        return Seq(t, Del())
    return Seq(t, _copy_all(n))


def rand_forward(rng, m, n, depth):
    """Random well-typed term '>'**m -> '>'**n of bounded syntactic depth."""
    if depth <= 0:
        return _bridge(rng, m, n)
    r = rng.random()
    if r < 0.25:
        k = rng.randint(0, 2)
        return Seq(rand_forward(rng, m, k, depth - 1),
                   rand_forward(rng, k, n, depth - 1))
    if r < 0.45 and m >= 1 and n >= 1:
        m1 = rng.randint(0, m - 1)
        n1 = rng.randint(0, n - 1)
        return Tensor(rand_forward(rng, m1, n1, depth - 1),
                      rand_forward(rng, m - m1, n - n1, depth - 1))
    if r < 0.60:
        return loop1(rand_forward(rng, m + 1, n + 1, depth - 1))
    if r < 0.85 and m == 1:
        return from_expression(rand_expr(rng, maxvar=n, depth=2), n)
    return _bridge(rng, m, n)


# ---------------------------------------------------------------------------
# structural chart construction (combinator path, used against expand)

def structural_chart(e):
    if isinstance(e, Zero):
        return empty_chart()
    if isinstance(e, Var):
        return variable_chart(e.index)
    if isinstance(e, Prefix):
        return prefix_chart(e.letter, structural_chart(e.body))
    if isinstance(e, Sum):
        return sum_chart(structural_chart(e.left), structural_chart(e.right))
    if isinstance(e, Mu):
        return rec_chart(e.binder, structural_chart(e.body))
    raise TypeError(f"unknown expression node {e!r}")


# ---------------------------------------------------------------------------
# brute-force oracles

def brute_related_pairs(p):
    """Greatest bisimulation on a prechart, by naive pair elimination."""
    beta = p.beta()
    states = sorted(p.states, key=str)

    def outs(x):
        return frozenset(m for m in beta[x] if m[0] == "out")

    def acts(x):
        return [m for m in beta[x] if m[0] == "act"]

    rel = {(x, y) for x in states for y in states if outs(x) == outs(y)}
    changed = True
    while changed:
        changed = False
        for (x, y) in sorted(rel, key=str):
            ok = all(
                any(b == a and (t, u) in rel for (_, b, u) in acts(y))
                for (_, a, t) in acts(x)
            ) and all(
                any(b == a and (t, u) in rel for (_, a, t) in acts(x))
                for (_, b, u) in acts(y)
            )
            if not ok:
                rel.discard((x, y))
                changed = True
    return rel


def brute_partition(p):
    """Bisimilarity classes as a Partition, numbered first-seen in
    state_key order, from the pair-elimination oracle."""
    rel = brute_related_pairs(p)
    blocks = []
    for x in sorted(p.states, key=state_key):
        if not any(x in b for b in blocks):
            blocks.append(frozenset(y for y in p.states if (x, y) in rel))
    return Partition(tuple(blocks))


def brute_bisimilar(c1, c2):
    union, s1, s2 = disjoint_union(c1, c2)
    return (s1, s2) in brute_related_pairs(union)


def _brute_classes(p):
    rel = brute_related_pairs(p)
    cls = {}
    for x in sorted(p.states, key=str):
        cls[x] = min((y for y in p.states if (x, y) in rel), key=str)
    return cls


def brute_distance(c1, c2):
    """Least-fixpoint distance between two starts, straight from the
    definition: collapse bisimilar states, then iterate the lifted
    Hausdorff operator on exact Fractions until nothing moves."""
    union, s1, s2 = disjoint_union(c1, c2)
    cls = _brute_classes(union)
    beta_full = union.beta()
    classes = sorted(set(cls.values()), key=str)
    beta = {}
    for c in classes:
        moves = set()
        for m in beta_full[c]:
            moves.add(("act", m[1], cls[m[2]]) if m[0] == "act" else m)
        beta[c] = frozenset(moves)

    d = {(x, y): Fraction(0) if x == y else Fraction(1)
         for x in classes for y in classes}
    bound = 4 * len(classes) ** 2 + 4
    for _ in range(bound):
        def cost(m1, m2):
            if m1 == m2:
                return Fraction(0)
            if m1[0] == "act" and m2[0] == "act" and m1[1] == m2[1]:
                return d[(m1[2], m2[2])] / 2
            return Fraction(1)

        def directed(sa, sb):
            return max(
                (min((cost(m1, m2) for m2 in sb), default=Fraction(1))
                 for m1 in sa),
                default=Fraction(0),
            )

        nd = {
            (x, y): max(directed(beta[x], beta[y]), directed(beta[y], beta[x]))
            for x in classes for y in classes
        }
        if nd == d:
            return d[(cls[s1], cls[s2])]
        d = nd
    raise AssertionError("oracle iteration failed to stabilise")


def brute_level(c1, c2):
    """Largest n with the starts related at stratification level n."""
    union, s1, s2 = disjoint_union(c1, c2)
    beta = union.beta()
    states = sorted(union.states, key=str)

    def outs(x):
        return frozenset(m for m in beta[x] if m[0] == "out")

    def acts(x):
        return [m for m in beta[x] if m[0] == "act"]

    rel = {(x, y) for x in states for y in states}
    level = 0
    while True:
        nxt = set()
        for (x, y) in rel:
            if outs(x) != outs(y):
                continue
            fwd = all(
                any(b == a and (t, u) in rel for (_, b, u) in acts(y))
                for (_, a, t) in acts(x)
            )
            bwd = all(
                any(b == a and (t, u) in rel for (_, a, t) in acts(x))
                for (_, b, u) in acts(y)
            )
            if fwd and bwd:
                nxt.add((x, y))
        if (s1, s2) not in nxt:
            return level
        if nxt == rel:
            return math.inf
        rel = nxt
        level += 1


def corpus_diagrams():
    """The diagram column of corpus/pairs.txt, parsed."""
    path = Path(__file__).resolve().parent.parent / "corpus" / "pairs.txt"
    lines = [l.strip() for l in path.read_text().splitlines()]
    return [parse_term(l.split("\t")[1])
            for l in lines if l and not l.startswith("#")]


# ---------------------------------------------------------------------------
# definitional composites of paired interfaces (reference for regbeh.int_*)

def ref_int_compose(f, g):
    """Plug f's right boundary into g's left one and trace the loop, built
    from rb_id/rb_sym/rb_oplus wirings, rb_compose and rb_trace."""
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


def ref_int_tensor(f, g):
    k, l = f.dom_pair
    m, n = f.cod_pair
    k2, l2 = g.dom_pair
    m2, n2 = g.cod_pair
    pre = rb_oplus(rb_oplus(rb_id(k), rb_sym(k2, n)), rb_id(n2))
    post = rb_oplus(rb_oplus(rb_id(l), rb_sym(m, l2)), rb_id(m2))
    payload = rb_compose(rb_compose(pre, rb_oplus(f.payload, g.payload)), post)
    return IntMorphism((k + k2, l + l2), (m + m2, n + n2), payload)


def ref_interpret(t):
    """Diagram semantics through the definitional composites; generators
    are interpreted by the library."""
    if isinstance(t, Seq):
        return ref_int_compose(ref_interpret(t.first), ref_interpret(t.second))
    if isinstance(t, Tensor):
        return ref_int_tensor(ref_interpret(t.left), ref_interpret(t.right))
    return interpret(t)


# ---------------------------------------------------------------------------
# perturbations (used to get pairs at small nonzero distances)

def flip_one_act(rng, t):
    """Copy of t with one action letter changed, or None if it has none."""
    from chartdist import Act, Seq, Tensor

    spots = []

    def walk(node, rebuild):
        if isinstance(node, Act):
            spots.append((node, rebuild))
        elif isinstance(node, Seq):
            walk(node.first, lambda c, n=node, r=rebuild: r(Seq(c, n.second)))
            walk(node.second, lambda c, n=node, r=rebuild: r(Seq(n.first, c)))
        elif isinstance(node, Tensor):
            walk(node.left, lambda c, n=node, r=rebuild: r(Tensor(c, n.right)))
            walk(node.right, lambda c, n=node, r=rebuild: r(Tensor(n.left, c)))

    walk(t, lambda c: c)
    if not spots:
        return None
    node, rebuild = rng.choice(spots)
    other = rng.choice([l for l in LETTERS if l != node.letter])
    return rebuild(Act(other))


def perturb_expr(rng, e, maxvar=2):
    """Copy of e with one random subterm replaced by a fresh one."""
    spots = []

    def walk(node, rebuild):
        spots.append(rebuild)
        if isinstance(node, Prefix):
            walk(node.body, lambda c, n=node, r=rebuild: r(Prefix(n.letter, c)))
        elif isinstance(node, Sum):
            walk(node.left, lambda c, n=node, r=rebuild: r(Sum(c, n.right)))
            walk(node.right, lambda c, n=node, r=rebuild: r(Sum(n.left, c)))
        elif isinstance(node, Mu):
            walk(node.body, lambda c, n=node, r=rebuild: r(Mu(n.binder, c)))

    walk(e, lambda c: c)
    rebuild = rng.choice(spots)
    return rebuild(rand_expr(rng, maxvar=maxvar, depth=rng.randint(1, 2)))
