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
from fractions import Fraction
from pathlib import Path

from .bisim import joint_refinement, witness_pairs
from .chart import (
    ChartFormatError, _relabel, _valid_letter, chart_to_dot,
    format_chart_text, parse_chart_text, reachable, state_key,
)
from .derive import (
    CertificateError, CertificateSyntaxError, SynthesisFailure, check,
    format_cert, parse_cert, synthesize,
)
from .diagram import (
    DiagramSyntaxError, DiagramTypeError, _open_chart, axiom_catalog,
    c1_copy_pair, check_axiom, format_term, open_chart_pair, parse_term,
    term_to_dot, typecheck,
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


def _load_chart(arg, args):
    text = _resolve(arg)
    if args.format == "chart":
        return parse_chart_text(text)
    return expand(parse_expr(text, alphabet=_parse_alphabet(args.alphabet)),
                  max_states=args.max_states)


def _load_pair(args):
    """The two inputs as diagram terms or as expressions."""
    if args.format == "diag":
        return parse_term(_resolve(args.left)), parse_term(_resolve(args.right))
    alphabet = _parse_alphabet(args.alphabet)
    return (parse_expr(_resolve(args.left), alphabet=alphabet),
            parse_expr(_resolve(args.right), alphabet=alphabet))


def _chart_pairs(args):
    """The two inputs as chart pairs: one pair, or for diagrams one pair
    per entry of their open charts."""
    if args.format != "diag":
        return [(_load_chart(args.left, args), _load_chart(args.right, args))]
    o1, o2 = open_chart_pair(*_load_pair(args), max_states=args.max_states)
    return list(zip(o1.charts(), o2.charts()))


def _compare(args):
    """One refinement of both inputs: the chart pairs, the refinement, and
    the least level of their start pairs (math.inf when all are bisimilar)."""
    pairs = _chart_pairs(args)
    refinement, starts = joint_refinement(pairs)
    level = min((refinement.level(x, y) for x, y in starts), default=math.inf)
    return pairs, refinement, level


def _cmd_dist(args):
    _, refinement, level = _compare(args)
    if level == math.inf:
        lines = ["0 (bisimilar)"]
    else:
        lines = [f"{level_distance(level)} (level {level})"]
    if args.table:
        lines.append(split_table(refinement).to_tsv().rstrip("\n"))
    return EXIT_OK, "\n".join(lines) + "\n"


def _cmd_bisim(args):
    pairs, refinement, level = _compare(args)
    if level != math.inf:
        return EXIT_USAGE, f"not bisimilar (level {level + 1})\n"
    lines = ["bisimilar"]
    for i, (c1, c2) in enumerate(pairs, start=1):
        tag = ""
        if args.format == "diag":
            tag = f"row {i}\t"
            c1, c2 = reachable(c1), reachable(c2)
        w = witness_pairs(refinement, c1, c2)
        for q1, q2 in sorted(w, key=lambda pr: (state_key(pr[0]), state_key(pr[1]))):
            lines.append(f"{tag}{q1}\t{q2}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _cmd_strat(args):
    _, _, level = _compare(args)
    text = "inf" if level == math.inf else str(level)
    return EXIT_OK, text + "\n"


def _cmd_compile(args):
    if args.format == "diag":
        t = parse_term(_resolve(args.input))
        dom, cod = typecheck(t)
        if dom != ">" or "<" in cod:
            raise DiagramTypeError(
                "compilation needs one forward input and forward outputs; "
                "bend the diagram first")
        [c] = _open_chart(t, args.max_states).charts()
    else:
        c = _load_chart(args.input, args)
    named, _ = _relabel(c, 0)
    return EXIT_OK, format_chart_text(named)


def _cmd_derive(args):
    t1, t2 = _load_pair(args)
    eps = Fraction(args.eps) if args.eps is not None else None
    if eps is not None and not 0 <= eps <= 1:
        raise _UsageError(f"--eps {eps} outside [0, 1]")
    cert = synthesize(t1, t2, eps=eps, max_states=args.max_states)
    return EXIT_OK, format_cert(cert) + "\n"


def _cmd_check(args):
    cert = parse_cert(_resolve(args.cert))
    t1, t2 = _load_pair(args)
    bound = check(cert, t1, t2, max_states=args.max_states)
    return EXIT_OK, f"{bound}\n"


def _cmd_render(args):
    if args.format == "diag":
        t = parse_term(_resolve(args.input))
        typecheck(t)
        dot = term_to_dot(t)
    else:
        dot = chart_to_dot(_load_chart(args.input, args))
    return EXIT_OK, dot


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
