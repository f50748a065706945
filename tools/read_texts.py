"""Time of the diagram reader against the term route, in one process.

    python3 tools/read_texts.py [--seed N] [--runs N]   (defaults: seed 1, 60 rounds)

Builds the ``certify`` workload of ``perfbench/`` for the seed through
``perfbench/workloads.py``, as ``perfbench/run.py`` builds it, and takes
both diagram texts of every ``--format diag`` query, in query order: 738
texts for seed 1.  They are read in chunks of 25 texts, each chunk by
``diagram._read_open`` and by the term route, ``diagram._open_parts`` of
``diagram.parse_term``, in turn, for the given number of rounds.  A
chunk's time is its best over the rounds, so a slow spell of a shared
machine, which a whole pass of some 50 ms seldom escapes, is left out.
Prints the sum of the chunks' bests for each, and the reader's sum over
the term route's.  An untimed round first checks that both give the same
parts for every text.

The program is imported from the ``src/`` beside this script; no bytecode
is written, so the script leaves no file behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHUNK = 25


def diagram_texts(seed):
    """Both diagram texts of each --format diag query of certify."""
    import chartdist
    import workloads

    def diagram_distance(text1, text2):
        return chartdist.diagram_distance(chartdist.parse_term(text1),
                                          chartdist.parse_term(text2))

    queries, _, _ = workloads.build("certify", seed, diagram_distance)
    texts = []
    for q in queries:
        if "diag" in q.argv:  # derive LEFT RIGHT ... or check CERT LEFT RIGHT ...
            first = 2 if q.cmd == "check" else 1
            texts += q.argv[first:first + 2]
    return texts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default %(default)s)")
    ap.add_argument("--runs", type=int, default=60, help="rounds (default %(default)s)")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from chartdist import diagram

    def reader(texts):
        return [diagram._read_open(t) for t in texts]

    def term_route(texts):
        return [diagram._open_parts(diagram.parse_term(t)) for t in texts]

    texts = diagram_texts(args.seed)
    if reader(texts) != term_route(texts):
        print("error: the reader and the term route differ", file=sys.stderr)
        return 1
    total = {reader: 0.0, term_route: 0.0}
    for start in range(0, len(texts), CHUNK):
        chunk = texts[start:start + CHUNK]
        best = dict.fromkeys(total, float("inf"))
        for _ in range(args.runs):
            for read in total:
                t0 = time.perf_counter()
                read(chunk)
                best[read] = min(best[read], time.perf_counter() - t0)
        for read in total:
            total[read] += best[read]
    print(f"certify seed {args.seed}: {len(texts)} diagram texts, {args.runs} rounds "
          f"of chunks of {CHUNK}, sum of each chunk's best")
    print(f"_read_open               {total[reader] * 1e3:7.2f} ms")
    print(f"_open_parts(parse_term)  {total[term_route] * 1e3:7.2f} ms")
    print(f"ratio {total[reader] / total[term_route]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
