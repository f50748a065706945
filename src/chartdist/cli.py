"""Command line front end.

Arguments naming a readable file are loaded from it; anything else is
taken as inline text.  Output is deterministic byte-for-byte for fixed
inputs.  Exit codes: 0 success (for ``bisim``: bisimilar), 1 usage or
not bisimilar, 2 parse error, 3 type error, 4 rejected certificate or
failed derivation, 5 state budget exceeded, or an input nested too
deeply to process (a ``RecursionError`` or ``MemoryError``).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .bisim import Refinement, witness_pairs
from .chart import (
    Chart, ChartFormatError, _relabel, _valid_letter, chart_to_dot,
    format_chart_text, parse_chart_text, reachable, state_key,
)
from .derive import (
    CertificateError, CertificateSyntaxError, SynthesisFailure, check,
    format_cert, joint_pair, parse_cert, synthesize,
)
from .diagram import (
    DiagramSyntaxError, DiagramTypeError, _open_chart, axiom_catalog,
    c1_copy_pair, check_axiom, format_term, parse_term, term_to_dot,
    typecheck,
)
from .expr import ExpansionBudgetError, ExprSyntaxError, expand, parse_expr
from .metric import level_distance, split_table
from .regbeh import RbTypeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TYPE = 3
EXIT_REJECTED = 4
EXIT_BUDGET = 5


class _UsageError(Exception):
    pass


# Checked in order: the parse errors are ValueErrors too.
_ERROR_EXITS = (
    ((ExprSyntaxError, ChartFormatError, DiagramSyntaxError,
      CertificateSyntaxError), EXIT_PARSE),
    ((DiagramTypeError, RbTypeError), EXIT_TYPE),
    ((SynthesisFailure, CertificateError), EXIT_REJECTED),
    ((ExpansionBudgetError,), EXIT_BUDGET),
    ((_UsageError, ValueError, ZeroDivisionError), EXIT_USAGE),
)
_ERRORS = tuple(t for types, _ in _ERROR_EXITS for t in types)


def _resolve(arg: str) -> str:
    try:
        p = Path(arg)
        if p.is_file():
            return p.read_text()
    except OSError:
        pass
    return arg


def _parse_alphabet(spec):
    # accepts "abc", "a,b,c", and "a b c" alike
    if spec is None:
        return None
    letters = set()
    for token in spec.replace(",", " ").split():
        letters.update(token)
    if not letters:
        raise _UsageError("empty alphabet")
    bad = sorted(l for l in letters if not _valid_letter(l))
    if bad:
        raise _UsageError(f"invalid alphabet letters: {', '.join(bad)}")
    return letters


def _load(arg, args):
    """One input in the syntax --format names, its action letters
    restricted to --alphabet."""
    text, alphabet = _resolve(arg), _parse_alphabet(args.alphabet)
    if args.format == "diag":
        return parse_term(text, alphabet=alphabet)
    if args.format == "chart":
        return parse_chart_text(text, alphabet=alphabet)
    return parse_expr(text, alphabet=alphabet)


def _compare(args):
    """One refinement of both inputs: the joint prechart, the seed pair
    of each row, the refinement, and the least level of the rows
    (math.inf when all are bisimilar)."""
    joint, rows = joint_pair(_load(args.left, args), _load(args.right, args),
                             max_states=args.max_states)
    refinement = Refinement(joint)
    return joint, rows, refinement, refinement.least_level(rows)


def _cmd_dist(args):
    _, _, refinement, level = _compare(args)
    if level == math.inf:
        lines = ["0 (bisimilar)"]
    else:
        lines = [f"{level_distance(level)} (level {level})"]
    if args.table:
        lines.append(split_table(refinement).to_tsv().rstrip("\n"))
    return EXIT_OK, "\n".join(lines) + "\n"


def _witness_side(args, joint, seed):
    """The states one side of a bisim witness ranges over, all of a chart's
    or else those the seed reaches, mapped to their names in the input:
    untagged, and numbers for diagrams."""
    if args.format == "chart":
        states = [q for q in joint.states if q[:2] == seed[:2]]
    else:
        states = reachable(Chart(joint, seed)).states
    if args.format == "expr":
        return {q: q for q in states}
    name = int if args.format == "diag" else str
    return {q: name(q[2:]) for q in states}


def _cmd_bisim(args):
    joint, rows, refinement, level = _compare(args)
    if level != math.inf:
        return EXIT_USAGE, f"not bisimilar (level {level + 1})\n"
    lines = ["bisimilar"]
    for i, (x, y) in enumerate(rows, start=1):
        tag = f"row {i}\t" if args.format == "diag" else ""
        w = witness_pairs(refinement, _witness_side(args, joint, x),
                          _witness_side(args, joint, y))
        for q1, q2 in sorted(w, key=lambda pr: (state_key(pr[0]), state_key(pr[1]))):
            lines.append(f"{tag}{q1}\t{q2}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _cmd_strat(args):
    level = _compare(args)[3]
    return EXIT_OK, ("inf" if level == math.inf else str(level)) + "\n"


def _cmd_compile(args):
    if args.format == "diag":
        t = _load(args.input, args)
        dom, cod = typecheck(t)
        if dom != ">" or "<" in cod:
            raise DiagramTypeError(
                "compilation needs one forward input and forward outputs; "
                "bend the diagram first")
        o = _open_chart(t, args.max_states)
        c = Chart(o.prechart, o.entries[0])
    else:
        c = expand(_load(args.input, args), max_states=args.max_states)
    named, _ = _relabel(c, 0)
    return EXIT_OK, format_chart_text(named)


def _cmd_derive(args):
    cert = synthesize(_load(args.left, args), _load(args.right, args),
                      eps=args.eps, max_states=args.max_states)
    return EXIT_OK, format_cert(cert) + "\n"


def _cmd_check(args):
    cert = parse_cert(_resolve(args.cert))
    bound = check(cert, _load(args.left, args), _load(args.right, args),
                  max_states=args.max_states)
    return EXIT_OK, f"{bound}\n"


def _cmd_render(args):
    x = _load(args.input, args)
    if args.format == "diag":
        typecheck(x)
        return EXIT_OK, term_to_dot(x)
    if args.format == "expr":
        x = expand(x, max_states=args.max_states)
    return EXIT_OK, chart_to_dot(x)


def _cmd_axioms(args):
    lines = []
    if not args.check:
        for name, lhs, rhs in axiom_catalog():
            lines.append(f"{name}: {format_term(lhs)} = {format_term(rhs)}")
        return EXIT_OK, "\n".join(lines) + "\n"
    ok = True
    for name, lhs, rhs in axiom_catalog():
        holds = check_axiom(lhs, rhs)
        ok = ok and holds
        lines.append(f"{name}: {'holds' if holds else 'FAILS'}")
    lhs, rhs = c1_copy_pair()
    control = check_axiom(lhs, rhs)
    ok = ok and not control
    lines.append("act-copy: "
                 + ("fails as expected" if not control else "UNEXPECTEDLY HOLDS"))
    return (EXIT_OK if ok else EXIT_REJECTED), "\n".join(lines) + "\n"


def _add_common(sub, formats):
    sub.add_argument("--format", choices=formats, default=formats[0],
                     help="input syntax (default %(default)s)")
    sub.add_argument("--alphabet", default=None,
                     help="restrict expression letters, e.g. 'a,b'")
    sub.add_argument("--max-states", type=int, default=10000,
                     help="state budget for expansions (default %(default)s)")
    sub.add_argument("-o", dest="output", default=None, metavar="FILE",
                     help="write the report to FILE instead of stdout")


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chartdist",
        description="Exact behavioural distances, bisimilarity, diagram "
                    "compilation, and distance certificates.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dist", help="exact distance and stratified level")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--table", action="store_true",
                   help="also dump the full distance table as TSV")
    _add_common(p, ["expr", "diag", "chart"])
    p.set_defaults(func=_cmd_dist)

    p = subs.add_parser("bisim", help="bisimilarity with witness dump")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p, ["expr", "diag", "chart"])
    p.set_defaults(func=_cmd_bisim)

    p = subs.add_parser("strat", help="largest level n with s1 ~(n) s2")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p, ["expr", "diag", "chart"])
    p.set_defaults(func=_cmd_strat)

    p = subs.add_parser("compile",
                        help="expression or diagram to chart text")
    p.add_argument("input")
    _add_common(p, ["expr", "diag"])
    p.set_defaults(func=_cmd_compile)

    p = subs.add_parser("derive", help="synthesize a distance certificate")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--eps", default=None, metavar="p/q",
                   help="requested bound (default: the exact distance)")
    _add_common(p, ["expr", "diag"])
    p.set_defaults(func=_cmd_derive)

    p = subs.add_parser("check", help="validate a distance certificate")
    p.add_argument("cert")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p, ["expr", "diag"])
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("render", help="DOT output for an input")
    p.add_argument("input")
    p.add_argument("--dot", default=None, metavar="FILE",
                   help="write DOT to FILE (same as -o)")
    _add_common(p, ["expr", "diag", "chart"])
    p.set_defaults(func=_cmd_render)

    p = subs.add_parser("axioms", help="list or check the axiom catalogue")
    p.add_argument("--check", action="store_true",
                   help="verify every axiom and the negative control")
    p.add_argument("-o", dest="output", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_axioms)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        code, text = args.func(args)
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return next(exit_code for types, exit_code in _ERROR_EXITS
                    if isinstance(e, types))
    except (RecursionError, MemoryError):
        print("error: input too deeply nested", file=sys.stderr)
        return EXIT_BUDGET
    target = getattr(args, "output", None)
    if args.command == "render" and getattr(args, "dot", None):
        target = args.dot
    if target:
        try:
            Path(target).write_text(text)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
