"""The three workloads: seeded inputs, the queries over them and their
reference answers.

A workload is a list of ``Query`` objects, run one after another through
``chartdist.cli.main``.  Inputs are plain text made here from the seed;
reference answers come from ``oracle`` (brute force on the benchmark's own
chart construction) or, for diagram pairs, from ``chartdist.diagram_distance``
(the ``regbeh`` path, which ``derive`` and ``check`` do not take).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle
from oracle import Chart, chart_text, format_expr

LETTERS = "ab"


@dataclass
class Query:
    """One CLI call and what it must produce.

    ``argv`` may hold a ``CertOf`` placeholder, filled in with the
    certificate printed by an earlier ``derive`` query of the same batch.
    ``stdout`` is the exact expected output; where the output names states
    that only the program defines, ``stdout`` is None and ``verify`` judges
    it instead.  Either way the output seen first is pinned and every later
    pass must repeat it byte for byte.
    """

    family: str
    cmd: str
    argv: list
    code: int
    stdout: str | None = None
    verify: object = None
    index: int = field(default=-1)


@dataclass(frozen=True)
class CertOf:
    """Stands for the certificate printed by query ``index``; ``tamper``
    lowers its first coupling bound to half."""

    index: int
    tamper: bool = False


# --- charts ---------------------------------------------------------------


def cycle(n, outs_at=(0,)):
    """n states, a to the next state, b to the one after, v1 at outs_at."""
    trans = {(q, "a", (q + 1) % n) for q in range(n)}
    trans |= {(q, "b", (q + 2) % n) for q in range(n)}
    return Chart(tuple(range(n)), trans, {(q, 1) for q in outs_at}, 0)


def rand_chart(rng, n):
    """n states with 18 % of all transitions and 25 % of all outputs of v1
    and v2, drawn at random.  The counts are fixed, since the cost of a
    query follows them."""
    triples = [(q, a, r) for q in range(n) for a in LETTERS for r in range(n)]
    outs = [(q, v) for q in range(n) for v in (1, 2)]
    return Chart(tuple(range(n)), set(rng.sample(triples, round(0.18 * len(triples)))),
                 set(rng.sample(outs, round(0.25 * len(outs)))), 0)


def perturbed(rng, c):
    """Copy of c with one transition retargeted (or one output added)."""
    trans = sorted(c.trans)
    if not trans:
        return Chart(c.states, c.trans, c.outs | {(c.start, 1)}, c.start)
    q, a, r = trans[rng.randrange(len(trans))]
    r2 = rng.choice([s for s in c.states if s != r] or [r])
    return Chart(c.states, (set(trans) - {(q, a, r)}) | {(q, a, r2)}, c.outs, c.start)


def permuted(rng, c):
    """Isomorphic copy of c with its states renamed."""
    names = list(c.states)
    rng.shuffle(names)
    m = dict(zip(c.states, names))
    return Chart(tuple(range(len(names))), {(m[q], a, m[r]) for (q, a, r) in c.trans},
                 {(m[q], v) for (q, v) in c.outs}, m[c.start])


def _chart_queries(family, c1, c2, level, witness):
    """dist, strat and bisim on a chart pair at a known level."""
    argv = [chart_text(c1), chart_text(c2), "--format", "chart"]
    qs = [
        Query(family, "dist", ["dist"] + argv, 0, oracle.dist_line(level)),
        Query(family, "strat", ["strat"] + argv, 0,
              "inf\n" if level == math.inf else f"{level}\n"),
    ]
    if level == math.inf:
        lines = [f"{x}\t{y}" for (x, y) in sorted(witness, key=lambda p: (str(p[0]), str(p[1])))]
        qs.append(Query(family, "bisim", ["bisim"] + argv, 0,
                        "\n".join(["bisimilar"] + lines) + "\n"))
    else:
        qs.append(Query(family, "bisim", ["bisim"] + argv, 1,
                        f"not bisimilar (level {level + 1})\n"))
    return qs


RANDOM_CHART_PAIRS = 120


def charts_workload(rng, _diagram_distance):
    qs = []
    for n in (8, 16, 24, 32, 40):
        # closed form: an n-cycle and an (n+1)-cycle agree up to level n/2
        qs += _chart_queries("cycle", cycle(n), cycle(n + 1), n // 2, None)
    for n in (4, 8, 12, 16):
        unfold = cycle(2 * n, outs_at=(0, n))
        witness = {(i, j) for i in range(n) for j in range(2 * n) if j % n == i}
        qs += _chart_queries("unfold", cycle(n), unfold, math.inf, witness)
    for i in range(RANDOM_CHART_PAIRS):
        # size, kind and the level of the start pair follow the position, so
        # that every seed gives a batch of the same shape
        size = 8 + (7 * i) % 17
        kind = ("independent", "perturbed", "permuted")[i % 3]
        target = {"independent": i // 3 % 2, "perturbed": 2 + i // 3 % 3,
                  "permuted": math.inf}[kind]
        for _ in range(1000):
            c1 = rand_chart(rng, size)
            if kind == "independent":
                c2 = rand_chart(rng, size)
            elif kind == "perturbed":
                c2 = perturbed(rng, c1)
            else:
                c2 = permuted(rng, c1)
            if oracle.brute_level(c1, c2) == target:
                break
        else:
            raise RuntimeError(f"no {kind} pair of {size} states at level {target}")
        # brute_distance on the larger pairs would take most of the set-up
        level = _checked_level(c1, c2, cross_check=size <= 16)
        witness = oracle.greatest_bisimulation(c1, c2) if level == math.inf else None
        qs += _chart_queries("random-" + kind, c1, c2, level, witness)
    return qs


def _checked_level(c1, c2, cross_check=True):
    """brute_level, cross-checked against brute_distance = 2^-level."""
    levels = oracle.pair_levels(c1, c2)
    level = levels[(c1.start, c2.start)]
    if not cross_check:
        return level
    d = oracle.brute_distance(c1, c2, levels)
    if d != (0 if level == math.inf else Fraction(1, 2 ** level)):
        raise AssertionError(f"oracles disagree: distance {d}, level {level}")
    return level


# --- expressions ----------------------------------------------------------


def rand_expr(rng, maxvar=2, depth=3, scope=None):
    """Copy of the test suite's generator, on the oracle's tuples."""
    scope = list(range(1, maxvar + 1)) if scope is None else scope
    pick = rng.randrange(6) if depth > 0 else rng.randrange(2)
    if pick == 1 and not scope:
        pick = 0
    if pick == 0:
        return ("0",)
    if pick == 1:
        return ("v", rng.choice(scope))
    if pick in (2, 3):
        return ("p", rng.choice(LETTERS), rand_expr(rng, maxvar, depth - 1, scope))
    if pick == 4:
        return ("s", rand_expr(rng, maxvar, depth - 1, scope),
                rand_expr(rng, maxvar, depth - 1, scope))
    v = max(scope, default=0) + rng.randint(1, 2)
    return ("mu", v, rand_expr(rng, maxvar, depth - 1, scope + [v]))


def perturb_expr(rng, e, maxvar=2):
    """Copy of e with one random subterm replaced by a fresh one."""
    spots = []

    def walk(node, rebuild):
        spots.append(rebuild)
        kind = node[0]
        if kind == "p":
            walk(node[2], lambda c, n=node, r=rebuild: r(("p", n[1], c)))
        elif kind == "s":
            walk(node[1], lambda c, n=node, r=rebuild: r(("s", c, n[2])))
            walk(node[2], lambda c, n=node, r=rebuild: r(("s", n[1], c)))
        elif kind == "mu":
            walk(node[2], lambda c, n=node, r=rebuild: r(("mu", n[1], c)))

    walk(e, lambda c: c)
    rebuild = rng.choice(spots)
    return rebuild(rand_expr(rng, maxvar=maxvar, depth=rng.randint(1, 2)))


def nested(k):
    """mu v1.a.mu v2.a. ... mu vk.a.(b.v1 + ... + b.vk)"""
    body = ("p", "b", ("v", 1))
    for i in range(2, k + 1):
        body = ("s", body, ("p", "b", ("v", i)))
    for i in range(k, 0, -1):
        body = ("mu", i, ("p", "a", body))
    return body


def long_loop(n):
    """mu v1.a.a. ... a.v1 with n prefixes"""
    body = ("v", 1)
    for _ in range(n):
        body = ("p", "a", body)
    return ("mu", 1, body)


A_LOOP = ("mu", 1, ("p", "a", ("v", 1)))
# the worked example: two behaviours at distance 1/4
WORKED = (oracle.read_expr("a.(a.0 + b.mu v1.a.v1)+b.mu v1.a.v1"),
          oracle.read_expr("mu v2.(a.v2 + b.mu v1.a.a.v1)"))


def _bisimilar_states(text1, text2):
    c1 = oracle.structural_chart(oracle.read_expr(text1))
    c2 = oracle.structural_chart(oracle.read_expr(text2))
    return oracle.brute_level(c1, c2) == math.inf


def verify_witness(out):
    """A bisim witness over expression states: every listed pair of states
    is bisimilar by the oracle."""
    lines = out.splitlines()
    if not lines or lines[0] != "bisimilar" or len(lines) < 2:
        return False
    return all(_bisimilar_states(*line.split("\t")) for line in lines[1:])


def verify_compile(e):
    ref = oracle.structural_chart(e)

    def check(out):
        return oracle.brute_level(oracle.read_chart_text(out), ref) == math.inf
    return check


def _expr_pair_queries(family, e1, e2):
    c1, c2 = oracle.structural_chart(e1), oracle.structural_chart(e2)
    level = _checked_level(c1, c2)
    argv = [format_expr(e1), format_expr(e2)]
    qs = [
        Query(family, "dist", ["dist"] + argv, 0, oracle.dist_line(level)),
        Query(family, "strat", ["strat"] + argv, 0,
              "inf\n" if level == math.inf else f"{level}\n"),
    ]
    if level == math.inf:
        qs.append(Query(family, "bisim", ["bisim"] + argv, 0, verify=verify_witness))
    else:
        qs.append(Query(family, "bisim", ["bisim"] + argv, 1,
                        f"not bisimilar (level {level + 1})\n"))
    return qs


def _compile_query(family, e):
    return Query(family, "compile", ["compile", format_expr(e)], 0,
                 verify=verify_compile(e))


def exprs_workload(rng, _diagram_distance):
    qs = []
    made = 0
    while made < 30:
        e1 = rand_expr(rng, depth=4)
        e2 = perturb_expr(rng, e1)
        if max(len(oracle.structural_chart(e).states) for e in (e1, e2)) > 12:
            continue
        qs += _expr_pair_queries("random", e1, e2)
        qs.append(_compile_query("random", e1 if made % 2 == 0 else e2))
        made += 1
    qs += _expr_pair_queries("worked", *WORKED)
    for k in range(2, 7):
        qs.append(_compile_query("nested", nested(k)))
    for n in (25, 50, 100, 150):
        qs += _expr_pair_queries("long-loop", long_loop(n), A_LOOP)
        qs.append(_compile_query("long-loop", long_loop(n)))
    return qs


def exprs_probes():
    """The 200-step loop against ``mu v1.a.v1``: its queries raise
    RecursionError at present.  They run once per run, outside the measured
    passes, so that the measured queries all succeed; their outcome is
    reported on its own."""
    return (_expr_pair_queries("long-loop", long_loop(200), A_LOOP)
            + [_compile_query("long-loop", long_loop(200))])


# --- diagrams and certificates --------------------------------------------
#
# Terms are tuples: ("copy",), ("del",), ("merge",), ("gen",), ("cap",),
# ("cup",), ("act", letter), ("id", word), ("sym", word, word),
# ("seq", t, u) and ("ten", t, u).

def format_term(t) -> str:
    kind = t[0]
    if kind == "seq":
        return f"({format_term(t[1])} ; {format_term(t[2])})"
    if kind == "ten":
        return f"({format_term(t[1])} * {format_term(t[2])})"
    if kind == "act":
        return f"act({t[1]})"
    if kind == "id":
        return f"id({t[1]})"
    if kind == "sym":
        return f"sym({t[1]},{t[2]})"
    return kind


def _tensor_fold(factors):
    parts = [f for f in factors if f != ("id", "")]
    if not parts:
        return ("id", "")
    t = parts[0]
    for f in parts[1:]:
        t = ("ten", t, f)
    return t


def _seq_fold(stages):
    t = stages[0]
    for s in stages[1:]:
        t = ("seq", t, s)
    return t


def loop1(u, k, l):
    """Feed the last output of u: k -> l back into its last input."""
    return _seq_fold([
        _tensor_fold([("id", ">" * (k - 1)), ("cup",)]),
        _tensor_fold([u, ("id", "<")]),
        _tensor_fold([("id", ">" * (l - 1)), ("sym", ">", "<")]),
        _tensor_fold([("id", ">" * (l - 1)), ("cap",)]),
    ])


def zip_merge(n):
    if n == 0:
        return ("id", "")
    if n == 1:
        return ("merge",)
    shuffle = _tensor_fold([("id", ">"), ("sym", ">" * (n - 1), ">"), ("id", ">" * (n - 1))])
    return ("seq", shuffle, ("ten", ("merge",), zip_merge(n - 1)))


def compile_expr(e, n, wire=None):
    """A diagram '>' -> '>'**n whose payload behaves like e, output wire i
    carrying variable vi (the construction of ``from_expression``)."""
    wire = {i: i for i in range(1, n + 1)} if wire is None else wire
    kind = e[0]
    if kind == "v":
        i = wire[e[1]]
        return _tensor_fold([("gen",)] * (i - 1) + [("id", ">")] + [("gen",)] * (n - i))
    if kind == "0":
        return ("del",) if n == 0 else ("seq", ("del",), _tensor_fold([("gen",)] * n))
    if kind == "p":
        return ("seq", ("act", e[1]), compile_expr(e[2], n, wire))
    if kind == "s":
        branches = ("ten", compile_expr(e[1], n, wire), compile_expr(e[2], n, wire))
        return _seq_fold([("copy",), branches, zip_merge(n)])
    inner = dict(wire)
    inner[e[1]] = n + 1
    return loop1(("seq", ("merge",), compile_expr(e[2], n + 1, inner)), 2, n + 1)


def _merge_all(m):
    t = ("id", ">")
    for _ in range(m - 1):
        t = ("seq", ("ten", ("id", ">"), t), ("merge",))
    return t


def _copy_all(n):
    if n == 1:
        return ("id", ">")
    return ("seq", ("copy",), ("ten", ("id", ">"), _copy_all(n - 1)))


def _bridge(rng, m, n):
    t = ("gen",) if m == 0 else _merge_all(m)
    if rng.random() < 0.6:
        t = ("seq", t, ("act", rng.choice(LETTERS)))
    if n == 0:
        return ("seq", t, ("del",))
    return ("seq", t, _copy_all(n))


def rand_forward(rng, m, n, depth):
    """Copy of the test suite's random well-typed term '>'**m -> '>'**n."""
    if depth <= 0:
        return _bridge(rng, m, n)
    r = rng.random()
    if r < 0.25:
        k = rng.randint(0, 2)
        return ("seq", rand_forward(rng, m, k, depth - 1),
                rand_forward(rng, k, n, depth - 1))
    if r < 0.45 and m >= 1 and n >= 1:
        m1 = rng.randint(0, m - 1)
        n1 = rng.randint(0, n - 1)
        return ("ten", rand_forward(rng, m1, n1, depth - 1),
                rand_forward(rng, m - m1, n - n1, depth - 1))
    if r < 0.60:
        return loop1(rand_forward(rng, m + 1, n + 1, depth - 1), m + 1, n + 1)
    if r < 0.85 and m == 1:
        return compile_expr(rand_expr(rng, maxvar=n, depth=2), n)
    return _bridge(rng, m, n)


def flip_one_act(rng, t):
    """Copy of t with one action letter changed, or None if it has none."""
    spots = []

    def walk(node, rebuild):
        if node[0] == "act":
            spots.append((node, rebuild))
        elif node[0] in ("seq", "ten"):
            walk(node[1], lambda c, n=node, r=rebuild: r((n[0], c, n[2])))
            walk(node[2], lambda c, n=node, r=rebuild: r((n[0], n[1], c)))

    walk(t, lambda c: c)
    if not spots:
        return None
    node, rebuild = rng.choice(spots)
    return rebuild(("act", "b" if node[1] == "a" else "a"))


# Expression and diagram columns of the bundled corpus rows (same
# behaviour on each row), grouped by the number of output wires.
CORPUS = {
    0: [
        ("0", "del"),
        ("a.0", "act(a) ; del"),
        ("mu v1.a.v1", "id(>) * cup ; (merge ; act(a)) * id(<) ; sym(>,<) ; cap"),
        ("mu v1.a.a.v1",
         "id(>) * cup ; (merge ; act(a) ; act(a)) * id(<) ; sym(>,<) ; cap"),
        ("a.(a.0 + b.mu v1.a.v1)+b.mu v1.a.v1",
         "copy ; (act(a) ; (copy ; (act(a) ; del) * (act(b) ; (id(>) * cup ; "
         "(merge ; (act(a) ; id(>))) * id(<) ; sym(>,<) ; cap)) ; id())) * "
         "(act(b) ; (id(>) * cup ; (merge ; (act(a) ; id(>))) * id(<) ; "
         "sym(>,<) ; cap)) ; id()"),
        ("mu v2.(a.v2 + b.mu v1.a.a.v1)",
         "id(>) * cup ; (merge ; (copy ; (act(a) ; id(>)) * (act(b) ; (id(>) * "
         "cup ; (merge ; (act(a) ; (act(a) ; gen * id(>)))) * id(<) ; id(>) * "
         "sym(>,<) ; id(>) * cap)) ; merge)) * id(<) ; sym(>,<) ; cap"),
    ],
    1: [
        ("v1", "id(>)"),
        ("a.v1", "act(a)"),
        ("a.v1+b.v1", "copy ; act(a) * act(b) ; merge"),
        ("a.b.v1", "act(a) ; act(b)"),
        ("b.(v1+v1)", "act(b) ; copy ; merge"),
    ],
    2: [
        ("v1+v2", "copy"),
        ("v2", "gen * id(>)"),
    ],
}


def _certify_queries(family, left, right, fmt, distance):
    """derive, check of the derived certificate, and the two refusals:
    derive with a bound below the distance, and check of the certificate
    with its first coupling bound lowered (only tight certificates with
    0 < distance < 1 have a coupling)."""
    opts = ["--format", fmt]
    qs = [Query(family, "derive", ["derive", left, right] + opts, 0),
          Query(family, "check", ["check", CertOf(0), left, right] + opts, 0,
                f"{distance}\n")]
    if distance > 0:
        qs.append(Query(family, "derive",
                        ["derive", left, right, "--eps", str(distance / 2)] + opts, 4, ""))
    if 0 < distance < 1:
        qs.append(Query(family, "check",
                        ["check", CertOf(0, tamper=True), left, right] + opts, 4, ""))
    return qs


# The cost of a diagram pair follows the length of its text; random pairs
# are kept in these length bins, the last bound excluded.
LENGTH_BINS = (0, 40, 80, 120, 160, 200, 240, 280, 320)
PAIRS_PER_CELL = 4


def certify_workload(rng, diagram_distance):
    groups = []
    # the same number of pairs in every cell of (distance 0, strictly between
    # 0 and 1, or 1) x (length bin), so that every seed gives the same mix of
    # accepting and refusing queries, and of diagram sizes
    quota = {(kind, b): PAIRS_PER_CELL for kind in ("zero", "between", "one")
             for b in range(len(LENGTH_BINS) - 1)}
    while any(quota.values()):
        t1 = rand_forward(rng, 1, 1, 3)
        t2 = flip_one_act(rng, t1)
        if t2 is None:
            continue
        a, b = format_term(t1), format_term(t2)
        if len(a) >= LENGTH_BINS[-1]:
            continue
        size = max(i for i, low in enumerate(LENGTH_BINS) if len(a) >= low)
        if not any(quota[(kind, size)] for kind in ("zero", "between", "one")):
            continue
        d = diagram_distance(a, b)
        kind = "zero" if d == 0 else "one" if d == 1 else "between"
        if quota[(kind, size)]:
            quota[(kind, size)] -= 1
            groups.append(_certify_queries("random", a, b, "diag", d))
    for rows in CORPUS.values():
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                (e1, d1), (e2, d2) = rows[i], rows[j]
                groups.append(_certify_queries(
                    "corpus-diag", d1, d2, "diag", diagram_distance(d1, d2)))
                groups.append(_certify_queries(
                    "corpus-expr", e1, e2, "expr", _expr_distance(e1, e2)))
    for k in (2, 3):
        left = format_expr(nested(k))
        groups.append(_certify_queries("nested", left, "mu v1.a.b.v1", "expr",
                                       _expr_distance(left, "mu v1.a.b.v1")))
    qs = []
    for group in groups:
        first = len(qs)
        for q in group:
            q.argv = [CertOf(first, a.tamper) if isinstance(a, CertOf) else a
                      for a in q.argv]
            qs.append(q)
    return qs


def _expr_distance(text1, text2):
    c1 = oracle.structural_chart(oracle.read_expr(text1))
    c2 = oracle.structural_chart(oracle.read_expr(text2))
    level = _checked_level(c1, c2)
    return Fraction(0) if level == math.inf else Fraction(1, 2 ** level)


WORKLOADS = {
    "charts": charts_workload,
    "exprs": exprs_workload,
    "certify": certify_workload,
}

PROBES = {"exprs": exprs_probes}


def build(name, seed, diagram_distance):
    """The measured queries of a workload for a seed, its probes (run once,
    not measured) and a digest of the inputs of both.

    ``diagram_distance(text1, text2)`` gives the reference distance of a
    pair of diagrams.
    """
    rng = random.Random(f"{name}:{seed}")
    qs = WORKLOADS[name](rng, diagram_distance)
    probes = PROBES.get(name, list)()
    digest = hashlib.sha256()
    for batch in (qs, probes):
        for i, q in enumerate(batch):
            q.index = i
            digest.update(repr((q.cmd, q.argv, q.code)).encode())
    return qs, probes, digest.hexdigest()
