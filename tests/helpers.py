"""Shared generators and slow reference oracles for the test suite.

The oracles here recompute results from first principles (pair
elimination for bisimilarity, plain sup-inf iteration in Fractions for
the distance) so the fast implementations have something independent
to disagree with.
"""

import json
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from chartdist import (
    Act, Cap, Chart, Copy, Cup, Del, Gen, Id, Merge, Mu, Partition, Prechart,
    Prefix, RbMorphism, Seq, Sum, Sym, Tensor, Var, Zero, alpha_normal,
    disjoint_union, empty_chart, expand, from_expression, loop1, parse_term,
    prefix_chart, rec_chart, substitute, sum_chart, typecheck, variable_chart,
)
from chartdist.chart import _LETTERS, _valid_letter, state_key
from chartdist.diagram import _close, _fold, _leaf_morphism, _tensor_fold

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


def _cups(m):
    """'' -> '>'**m '<'**m, m nested cups."""
    t = Id("")
    for i in range(m):
        t = Seq(t, Tensor(Tensor(Id(">" * i), Cup()), Id("<" * i)))
    return t


def _caps(n):
    """'<'**n '>'**n -> '', n nested caps."""
    t = Id("")
    for i in range(n):
        t = Seq(Tensor(Tensor(Id("<" * i), Cap()), Id(">" * i)), t)
    return t


def transpose(u):
    """The mirror image '<'**n -> '<'**m of a forward term u: '>'**m -> '>'**n,
    bent round with cups and caps; every boundary inside it has backward
    wires, several of them when m or n is."""
    dom, cod = typecheck(u)
    m, n = len(dom), len(cod)
    return Seq(Seq(Tensor(Id("<" * n), _cups(m)),
                   Tensor(Tensor(Id("<" * n), u), Id("<" * m))),
               Tensor(_caps(n), Id("<" * m)))


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


@st.composite
def precharts(draw):
    """Small precharts with no start: possibly empty, with unreachable
    states and self-loops, and a few string-named states."""
    n = draw(st.integers(0, 7))
    names = [str(i) if draw(st.booleans()) else i for i in range(n)]
    if not names:
        return Prechart(frozenset(), frozenset(), frozenset())
    state = st.sampled_from(names)
    trans = draw(st.frozensets(st.tuples(state, st.sampled_from("ab"), state),
                               max_size=14))
    loops = draw(st.frozensets(st.tuples(state, st.sampled_from("ab")),
                               max_size=2))
    outs = draw(st.frozensets(st.tuples(state, st.integers(1, 2)), max_size=6))
    return Prechart(frozenset(names), trans | {(q, a, q) for q, a in loops}, outs)


def ref_validate(states, trans, outs):
    """The checks of a Prechart one item at a time: ValueError naming the
    first offender met."""
    for (q, a, r) in trans:
        if q not in states or r not in states:
            raise ValueError(f"transition {(q, a, r)!r} references undeclared state")
        if not _valid_letter(a):
            raise ValueError(f"invalid action letter {a!r}")
    for (q, v) in outs:
        if q not in states:
            raise ValueError(f"output {(q, v)!r} references undeclared state")
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"invalid output variable {v!r}")


class RefRefinement:
    """Stratified partition refinement over the state names themselves,
    re-signing every state in every round: the reference for
    chartdist.Refinement, with the same split-tree history."""

    def __init__(self, p: Prechart):
        self.order = sorted(p.states, key=state_key)
        omap = p.output_map()
        self._outs = {q: frozenset(omap[q]) for q in self.order}
        self._succ = p.transition_map()
        self._block = dict.fromkeys(self.order, 0)
        self._parent = [None]
        self._split_at = [math.inf]
        self._count = 1 if self.order else 0
        self.rounds = 0
        self.stable = False
        self._classes = None

    def _advance(self):
        block = self._block
        parts: dict = {}
        for q in self.order:
            sig = (block[q], self._outs[q],
                   frozenset((a, block[r]) for (a, r) in self._succ[q]))
            parts.setdefault(sig, []).append(q)
        if len(parts) == self._count:
            self.stable = True
            return
        self.rounds += 1
        self._count = len(parts)
        by_block: dict = {}
        for (b, _, _), members in parts.items():
            by_block.setdefault(b, []).append(members)
        for b, split in by_block.items():
            if len(split) == 1:
                continue
            self._split_at[b] = self.rounds
            for members in split:
                child = len(self._parent)
                self._parent.append(b)
                self._split_at.append(math.inf)
                for q in members:
                    block[q] = child

    def level(self, x, y):
        block = self._block
        while block[x] == block[y]:
            if self.stable:
                return math.inf
            self._advance()
        a, b = block[x], block[y]
        while a != b:
            if a > b:
                a = self._parent[a]
            else:
                b = self._parent[b]
        return self._split_at[a] - 1

    def least_level(self, pairs):
        return min((self.level(x, y) for x, y in pairs), default=math.inf)

    def classes(self) -> dict:
        if self._classes is None:
            while not self.stable:
                self._advance()
            fresh: dict = {}
            self._classes = {q: fresh.setdefault(self._block[q], len(fresh))
                             for q in self.order}
        return self._classes

    def max_level(self) -> int:
        self.classes()
        return max(self.rounds - 1, 0)


def malformed_charts():
    """The rows of corpus/malformed_charts.json: a chart text that breaks
    one rule of the format, the --alphabet it is read under (or None),
    and the message and line number of its ChartFormatError."""
    path = Path(__file__).resolve().parent.parent / "corpus" / "malformed_charts.json"
    return json.loads(path.read_text())


def cycle_text(n):
    """An n-cycle: a to the next state, b to the one after, v1 at state 0."""
    lines = ["alphabet a b"] + [f"state {q}" for q in range(n)] + ["start 0"]
    for q in range(n):
        lines += [f"trans {q} a {(q + 1) % n}", f"trans {q} b {(q + 2) % n}"]
    return "\n".join(lines + ["out 0 v1"]) + "\n"


def corpus_rows():
    """The (expression, diagram) text pairs of corpus/pairs.txt."""
    path = Path(__file__).resolve().parent.parent / "corpus" / "pairs.txt"
    lines = [l.strip() for l in path.read_text().splitlines()]
    return [tuple(l.split("\t")) for l in lines if l and not l.startswith("#")]


def corpus_diagrams():
    """The diagram column of corpus/pairs.txt, parsed."""
    return [parse_term(d) for _, d in corpus_rows()]


def ref_open_chart(t, max_states=10000):
    """open_chart with each leaf's chart built from the reference
    semantics: the payload rows of its regbeh morphism expanded, their
    states sorted by state_key and numbered after the leaf's outputs, and
    an epsilon edge from each state outputting vj to output j.  The
    leaves are joined and closed as open_chart joins and closes them."""
    typecheck(t)
    moves, eps = [], []  # per node: its transitions (letter, node); its epsilon edges

    def leaf(node):
        m = _leaf_morphism(node)
        charts = [expand(row) for row in m.payload.rows]
        width = m.payload.cod
        states = sorted({q for c in charts for q in c.states}, key=state_key)
        base = len(moves)
        number = {q: base + width + i for i, q in enumerate(states)}
        moves.extend([] for _ in range(width + len(states)))
        eps.extend([] for _ in range(width + len(states)))
        for c in charts:
            for q, a, r in c.trans:
                moves[number[q]].append((a, number[r]))
            for q, v in c.outs:
                eps[number[q]].append(base + v - 1)
        (k, l), entries = m.dom_pair, [number[c.start] for c in charts]
        outputs = list(range(base, base + width))
        return entries[:k], entries[k:], outputs[:l], outputs[l:]

    def seq(f, g, _):
        for x, y in zip(f[3], g[0]):
            eps[x].append(y)
        for x, y in zip(g[2], f[1]):
            eps[x].append(y)
        return f[0], g[1], f[2], g[3]

    def tensor(f, g, _):
        return tuple(a + b for a, b in zip(f, g))

    ins, ins_back, outs_back, outs = _fold(t, leaf, seq, tensor)
    return _close(moves, eps, ins + ins_back, outs_back + outs, max_states)


def ref_zip_merge(n):
    """zip_merge by its recursive definition."""
    if n <= 1:
        return Merge() if n else Id("")
    shuffle = _tensor_fold([Id(">"), Sym(">" * (n - 1), ">"), Id(">" * (n - 1))])
    return Seq(shuffle, Tensor(Merge(), ref_zip_merge(n - 1)))


def ref_from_expression(e, n):
    """from_expression by structural recursion on the alpha-normal form
    (shallow expressions only)."""
    return _ref_compile(alpha_normal(e), n)


def _ref_compile(e, n):
    if isinstance(e, Var):
        return _tensor_fold([Gen()] * (e.index - 1) + [Id(">")] + [Gen()] * (n - e.index))
    if isinstance(e, Zero):
        return Del() if n == 0 else Seq(Del(), _tensor_fold([Gen()] * n))
    if isinstance(e, Prefix):
        return Seq(Act(e.letter), _ref_compile(e.body, n))
    if isinstance(e, Sum):
        branches = Tensor(_ref_compile(e.left, n), _ref_compile(e.right, n))
        return Seq(Seq(Copy(), branches), ref_zip_merge(n))
    body = e.body if e.binder == n + 1 else substitute(e.body, [(e.binder, Var(n + 1))])
    return loop1(Seq(Merge(), _ref_compile(body, n + 1)))


# ---------------------------------------------------------------------------
# reference expression core: plain frozen-dataclass trees, compared
# structurally and walked by recursion (reference for expr.expand)

@dataclass(frozen=True)
class RZero:
    pass


@dataclass(frozen=True)
class RVar:
    index: int


@dataclass(frozen=True)
class RPrefix:
    letter: str
    body: object


@dataclass(frozen=True)
class RSum:
    left: object
    right: object


@dataclass(frozen=True)
class RMu:
    binder: int
    body: object


def ref_free_vars(e):
    if isinstance(e, RZero):
        return frozenset()
    if isinstance(e, RVar):
        return frozenset({e.index})
    if isinstance(e, RPrefix):
        return ref_free_vars(e.body)
    if isinstance(e, RSum):
        return ref_free_vars(e.left) | ref_free_vars(e.right)
    return ref_free_vars(e.body) - {e.binder}


def ref_alpha_normal(e):
    base = max(ref_free_vars(e), default=0)

    def rec(t, depth, env):
        if isinstance(t, RZero):
            return t
        if isinstance(t, RVar):
            return RVar(env.get(t.index, t.index))
        if isinstance(t, RPrefix):
            return RPrefix(t.letter, rec(t.body, depth, env))
        if isinstance(t, RSum):
            return RSum(rec(t.left, depth, env), rec(t.right, depth, env))
        new = base + depth + 1
        return RMu(new, rec(t.body, depth + 1, {**env, t.binder: new}))

    return rec(e, 0, {})


def ref_subst(e, smap):
    if isinstance(e, RZero):
        return e
    if isinstance(e, RVar):
        return smap.get(e.index, e)
    if isinstance(e, RPrefix):
        return RPrefix(e.letter, ref_subst(e.body, smap))
    if isinstance(e, RSum):
        return RSum(ref_subst(e.left, smap), ref_subst(e.right, smap))
    w = e.binder
    inner = {v: g for (v, g) in smap.items() if v != w}
    if not inner:
        return e
    if all(w not in ref_free_vars(g) for g in inner.values()):
        return RMu(w, ref_subst(e.body, inner))
    avoid = set(inner)
    for g in inner.values():
        avoid |= ref_free_vars(g)
    avoid |= ref_free_vars(e.body)
    z = 1
    while z in avoid:
        z += 1
    return RMu(z, ref_subst(ref_subst(e.body, {w: RVar(z)}), inner))


def ref_step(e):
    """(transitions, outputs) of the one-step semantics."""
    if isinstance(e, RZero):
        return frozenset(), frozenset()
    if isinstance(e, RVar):
        return frozenset(), frozenset({e.index})
    if isinstance(e, RPrefix):
        return frozenset({(e.letter, e.body)}), frozenset()
    if isinstance(e, RSum):
        (t1, o1), (t2, o2) = ref_step(e.left), ref_step(e.right)
        return t1 | t2, o1 | o2
    trans, outs = ref_step(e.body)
    return (frozenset((a, ref_subst(t, {e.binder: e})) for (a, t) in trans),
            outs - {e.binder})


def _ref_open_mu(e):
    if isinstance(e, RMu):
        return True
    if isinstance(e, RPrefix):
        return _ref_open_mu(e.body)
    if isinstance(e, RSum):
        return _ref_open_mu(e.right)
    return False


def ref_format(e):
    if isinstance(e, RZero):
        return "0"
    if isinstance(e, RVar):
        return f"v{e.index}"
    if isinstance(e, RPrefix):
        body = ref_format(e.body)
        return f"{e.letter}.({body})" if isinstance(e.body, RSum) else f"{e.letter}.{body}"
    if isinstance(e, RMu):
        return f"mu v{e.binder}.{ref_format(e.body)}"
    left, right = ref_format(e.left), ref_format(e.right)
    if _ref_open_mu(e.left):
        left = f"({left})"
    if isinstance(e.right, RSum):
        right = f"({right})"
    return f"{left}+{right}"


def ref_parse(text):
    """Recursive descent over the expression grammar of README."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        if text[pos:pos + 1] != ch:
            raise ValueError(f"expected {ch!r} at {pos}")
        pos += 1

    def var_token():
        nonlocal pos
        skip_ws()
        expect("v")
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        return int(text[start:pos])

    def summands():
        nonlocal pos
        e = term()
        while True:
            skip_ws()
            if text[pos:pos + 1] != "+":
                return e
            pos += 1
            e = RSum(e, term())

    def term():
        nonlocal pos
        skip_ws()
        ch = text[pos:pos + 1]
        if text.startswith("mu", pos) and text[pos + 2:pos + 3] != ".":
            pos += 2
            binder = var_token()
            skip_ws()
            expect(".")
            return RMu(binder, summands())
        pos += 1
        if ch == "0":
            return RZero()
        if ch == "(":
            e = summands()
            skip_ws()
            expect(")")
            return e
        if ch == "v":
            pos -= 1
            return RVar(var_token())
        if ch not in _LETTERS:
            raise ValueError(f"unexpected {ch!r} at {pos - 1}")
        skip_ws()
        expect(".")
        return RPrefix(ch, term())

    e = summands()
    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing input at {pos}")
    return e


def ref_expand(text, max_states=10000):
    """Chart of the reachable derivatives of expression text, states named
    by canonical text: parse, alpha_normal, format_expr and expand."""
    start = ref_alpha_normal(ref_parse(text))
    start_key = ref_format(start)
    states = {start_key: start}
    trans, outs = set(), set()
    queue = deque([start_key])
    while queue:
        key = queue.popleft()
        sr_trans, sr_outs = ref_step(states[key])
        outs |= {(key, v) for v in sr_outs}
        targets = {}
        for (a, t) in sr_trans:
            nt = ref_alpha_normal(t)
            targets[(a, ref_format(nt))] = nt
        for (a, tkey) in sorted(targets):
            trans.add((key, a, tkey))
            if tkey not in states:
                if len(states) >= max_states:
                    raise RuntimeError(f"expansion exceeded {max_states} states")
                states[tkey] = targets[(a, tkey)]
                queue.append(tkey)
    return Chart(Prechart(frozenset(states), frozenset(trans), frozenset(outs)), start_key)


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
