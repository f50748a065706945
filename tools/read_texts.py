"""Time of the one-pass readers, of the expression reader against the
route through a tree, of the epsilon closure of the diagrams they read,
and of reading, printing, comparing, hashing, printing as repr and
pickling certificates, in one process.

    python3 tools/read_texts.py [--seed N] [--runs N]   (defaults: seed 1, 60 rounds)

Builds the ``certify`` and ``exprs`` workloads of ``perfbench/`` for the
seed through ``perfbench/workloads.py``, as ``perfbench/run.py`` builds
them.  Diagrams: both diagram texts of every ``--format diag`` query of
``certify``, in query order (738 texts for seed 1), read by
``diagram._read_open``, the one way a diagram becomes an open chart.
Expressions: every expression text of every ``exprs`` query, in query
order (249 texts for seed 1), each read into a fresh table by
``expr._read`` and by the tree route, ``expr._nameless`` of
``expr.parse_expr``.  Closure: ``diagram._close`` of the parts that
``diagram._read_open`` reads from each of the diagram texts.  The texts
are read in chunks of 25, each chunk by each route in turn, for the
given number of rounds.  A chunk's time is its best over the rounds, so
a slow spell of a shared machine, which a whole pass of some 50 ms
seldom escapes, is left out.  Prints the sum of the chunks' bests for
each route, and, for the expressions, the reader's sum over the tree
route's.  An untimed round first checks that both expression routes
give the same node id and table keys for every text.

Certificates: the text that ``derive`` prints for every accepting
``derive`` query of ``certify`` (150 texts for seed 1), read by
``derive.parse_cert`` and the nodes read printed back by
``derive.format_cert``, in chunks as above; an untimed round checks
that each prints back as read.  Then the ``derive`` certificate of
``act(a)``x2000 ``; del`` against x2001, a chain of 2,000 couplings:
the best time over the rounds of ``==`` against a copy read from its
text, ``hash``, ``repr`` and a pickle round trip.  Last, ``repr`` and
``str`` of ``(weaken 1/2^15000 (top))``, whose bound has more digits
than CPython turns into text by default; an operation that raises
``ValueError`` prints that it does, in place of its time.

The program is imported from the ``src/`` beside this script; no bytecode
is written, so the script leaves no file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import pickle
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHUNK = 25
CHAIN = 2000


def workload_texts(seed):
    """Both diagram texts of each --format diag query of certify, the
    expression texts of each query of exprs, and the certificate that
    each accepting derive query of certify prints."""
    import chartdist
    import workloads
    from chartdist import cli

    def diagram_distance(text1, text2):
        return chartdist.diagram_distance(chartdist.parse_term(text1),
                                          chartdist.parse_term(text2))

    queries, _, _ = workloads.build("certify", seed, diagram_distance)
    diagrams, certs = [], []
    for q in queries:
        if "diag" in q.argv:  # derive LEFT RIGHT ... or check CERT LEFT RIGHT ...
            first = 2 if q.cmd == "check" else 1
            diagrams += q.argv[first:first + 2]
        if q.cmd == "derive" and q.code == 0:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                cli.main(q.argv)
            certs.append(printed.getvalue().rstrip("\n"))
    queries, _, _ = workloads.build("exprs", seed, diagram_distance)
    expressions = [text for q in queries for text in q.argv[1:]]  # all plain texts
    return diagrams, expressions, certs


def best_sums(routes, texts, runs):
    """Each route's sum, over the chunks of texts, of its best time on the chunk."""
    total = dict.fromkeys(routes, 0.0)
    for start in range(0, len(texts), CHUNK):
        chunk = texts[start:start + CHUNK]
        best = dict.fromkeys(routes, float("inf"))
        for _ in range(runs):
            for route in routes:
                t0 = time.perf_counter()
                route(chunk)
                best[route] = min(best[route], time.perf_counter() - t0)
        for route in routes:
            total[route] += best[route]
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default %(default)s)")
    ap.add_argument("--runs", type=int, default=60, help="rounds (default %(default)s)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from chartdist import derive, diagram, expr

    def read_open(texts):
        return [diagram._read_open(t) for t in texts]

    def read_expr(texts):
        tables = [expr._Table() for _ in texts]
        return [(expr._read(t, table), table.keys) for t, table in zip(texts, tables)]

    def tree_route(texts):
        tables = [expr._Table() for _ in texts]
        return [(expr._nameless(table, expr.parse_expr(t)), table.keys)
                for t, table in zip(texts, tables)]

    def close(parts):
        return [diagram._close(*p, diagram.MAX_STATES) for _, p in parts]

    def read_cert(texts):
        return [derive.parse_cert(t) for t in texts]

    def print_cert(certs):
        return [derive.format_cert(c) for c in certs]

    diagrams, expressions, certs = workload_texts(args.seed)
    if print_cert(read_cert(certs)) != certs:
        print("error: a certificate prints back otherwise than it was read", file=sys.stderr)
        return 1
    sections = ((f"certify seed {args.seed}: {len(diagrams)} diagram texts", diagrams,
                 (("_read_open", read_open),)),
                (f"exprs seed {args.seed}: {len(expressions)} expression texts", expressions,
                 (("_read", read_expr), ("_nameless(parse_expr)", tree_route))),
                (f"certify seed {args.seed}: the parts of {len(diagrams)} diagram texts",
                 read_open(diagrams), (("_close", close),)),
                (f"certify seed {args.seed}: {len(certs)} certificate texts", certs,
                 (("parse_cert", read_cert),)),
                (f"certify seed {args.seed}: the {len(certs)} certificates read",
                 read_cert(certs), (("format_cert", print_cert),)))
    for title, texts, routes in sections:
        (reader_name, reader), *others = routes
        for name, route in others:
            if reader(texts) != route(texts):
                print(f"error: {reader_name} and {name} differ", file=sys.stderr)
                return 1
        total = best_sums([route for _, route in routes], texts, args.runs)
        print(f"{title}, {args.runs} rounds of chunks of {CHUNK}, sum of each chunk's best")
        for name, route in routes:
            print(f"{name:<25}{total[route] * 1e3:7.2f} ms")
        for _, route in others:
            print(f"ratio {total[reader] / total[route]:.3f}")
    return chain_times(derive, diagram, args.runs)


def chain_times(derive, diagram, runs):
    """Print the best time of each operation on the chain certificate and
    on the certificate of a bound of 4,516 digits."""
    left, right = (diagram.parse_term(" ; ".join(["act(a)"] * n + ["del"]))
                   for n in (CHAIN, CHAIN + 1))
    cert = derive.synthesize(left, right)
    other = derive.parse_cert(derive.format_cert(cert))
    if not (cert == other and pickle.loads(pickle.dumps(cert)) == cert):
        print("error: the chain certificate differs from its copies", file=sys.stderr)
        return 1
    bound = derive.CWeaken(Fraction(1, 2 ** 15000), derive.CTop())
    print(f"chain certificate n={CHAIN}, then the bound 1/2^15000, best of {runs} rounds")
    for name, op in (("==", lambda: cert == other), ("hash", lambda: hash(cert)),
                     ("repr", lambda: repr(cert)),
                     ("pickle round trip", lambda: pickle.loads(pickle.dumps(cert))),
                     ("repr, bound 1/2^15000", lambda: repr(bound)),
                     ("str, bound 1/2^15000", lambda: str(bound))):
        best = float("inf")
        try:
            for _ in range(runs):
                t0 = time.perf_counter()
                op()
                best = min(best, time.perf_counter() - t0)
        except ValueError:
            print(f"{name:<25}raises ValueError")
            continue
        print(f"{name:<25}{best * 1e3:7.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
