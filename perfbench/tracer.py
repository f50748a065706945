"""Spans around the public functions of each chartdist layer.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each traced function, in every ``chartdist`` module namespace that binds it,
by a wrapper that records a span, and ``uninstall`` puts the originals back.
A span is ``[name, start_ns, end_ns, parent, query]``; spans stay in memory
and are written out once, when the run ends.

Some counts are read off return values (states expanded, solver
iterations, ...).  The wrapper only keeps the value; the counting happens
after the query has ended, so it is not charged to any span.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("cli", "bisim", "chart", "derive", "diagram", "expr", "metric", "regbeh")

# layer -> traced functions of the module of that name
TRACED = {
    "cli": ("main",),
    "expr": ("parse_expr", "expand"),
    "chart": ("parse_chart_text", "disjoint_union"),
    "bisim": ("coarsest_partition", "stratified_level", "bisimilar", "quotient"),
    "metric": ("kleene_solve",),
    "regbeh": ("int_compose", "int_tensor"),
    "diagram": ("parse_term", "typecheck", "interpret", "from_expression"),
    "derive": ("joint_prechart", "synthesize", "check", "format_cert", "parse_cert"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


def _cert_nodes(cert, memo):
    """Nodes of a certificate as printed (shared subtrees counted each time)."""
    key = id(cert)
    if key not in memo:
        children = []
        for attr in ("child", "first", "second"):
            if getattr(cert, attr, None) is not None:
                children.append(getattr(cert, attr))
        children += [c for (_, _, c) in getattr(cert, "pairs", ()) if c is not None]
        children += list(getattr(cert, "children", ()))
        memo[key] = 1 + sum(_cert_nodes(c, memo) for c in children)
    return memo[key]


def _count_expand(counts, chart):
    counts["expr.expand.states"] += len(chart.states)


def _count_union(counts, result):
    counts["chart.union.states"] += len(result[0].states)


def _count_kleene(counts, result):
    counts["metric.kleene.iterations"] += result.iterations
    counts["metric.kleene.classes"] += len(result.quotient.states)


def _count_interpret(counts, morphism):
    counts["regbeh.payload_chars"] += sum(len(str(row)) for row in morphism.payload.rows)


def _count_joint(counts, result):
    counts["derive.joint.states"] += len(result[0].states)


def _count_cert(counts, cert):
    counts["derive.cert.nodes"] += _cert_nodes(cert, {})


COUNTERS = {
    "expr.expand": _count_expand,
    "chart.disjoint_union": _count_union,
    "metric.kleene_solve": _count_kleene,
    "diagram.interpret": _count_interpret,
    "derive.joint_prechart": _count_joint,
    "derive.synthesize": _count_cert,
}

COUNT_NAMES = ("expr.expand.states", "chart.union.states", "metric.kleene.iterations",
               "metric.kleene.classes", "regbeh.payload_chars", "derive.joint.states",
               "derive.cert.nodes")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._query = None
        self._returns = []
        self._patches = []
        namespaces = [importlib.import_module(m) for m in
                      ("chartdist",) + tuple(f"chartdist.{m}" for m in MODULES)]
        for layer, fns in TRACED.items():
            home = importlib.import_module(f"chartdist.{layer}")
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in namespaces:
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, name, fn):
        stack = self._stack
        keep = name in COUNTERS

        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self._query]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if keep:
                self._returns.append((name, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def reset(self):
        """Start a new pass: drop the spans and counts of the last one."""
        self.spans = []
        self.counts = defaultdict(int)

    def begin_query(self, query):
        """Open the root span of a query; every traced call until
        ``end_query`` becomes its descendant."""
        self._query = query
        self._stack.append(len(self.spans))
        self.spans.append(["query", perf_counter_ns(), 0, -1, query])

    def end_query(self):
        """Close the root span, then count what the query's calls returned;
        the traced wall time of the query."""
        root = self.spans[self._stack.pop()]
        root[2] = perf_counter_ns()
        if self._stack:
            raise AssertionError("a traced call did not close its span")
        for name, value in self._returns:
            COUNTERS[name](self.counts, value)
        self._returns.clear()
        self._query = None
        return root[2] - root[1]


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover."""
    covered = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if end == 0:
            raise AssertionError(f"span {name} never ended")
        if parent >= 0:
            _, pstart, pend, _, _ = spans[parent]
            covered[parent] += max(0, min(end, pend) - max(start, pstart))
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def summarize(spans, walls, problems):
    """Calls and self time per span name.  Checks that the self times of
    each query add up to that query's traced wall time; a query where they
    do not is reported in ``problems``."""
    selfs = self_times(spans)
    per_query = defaultdict(int)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    for span, own in zip(spans, selfs):
        per_query[span[4]] += own
        calls[span[0]] += 1
        self_ns[span[0]] += own
    for query, wall in walls.items():
        if per_query[query] != wall:
            problems.append(f"query {query}: self times sum to {per_query[query]} ns, "
                            f"traced wall time is {wall} ns")
    return calls, self_ns


def write_spans(path, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps(span) + "\n")
