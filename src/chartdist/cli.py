"""Command line front end.

An argument that holds no line break and names a readable file is
loaded from it; anything else is taken as inline text.  Output is
deterministic byte-for-byte for fixed inputs.  Exit codes: 0 success
(for ``bisim``: bisimilar), 1 usage or not bisimilar, 2 parse error, 3
type error, 4 rejected certificate or failed derivation, 5 state budget
exceeded, or an input nested too deeply to process (a
``RecursionError`` or ``MemoryError``).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

# Each command imports the core modules that its format and command run,
# when it runs, and calls their functions as module attributes, so that
# a wrapper or patch put on a module's function sees every call.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TYPE = 3
EXIT_REJECTED = 4
EXIT_BUDGET = 5


# The exit code of each error class the command line reports, by module
# and name, so that the table loads no module.  No class here subclasses
# another, so an error takes the code of its own class; any other error,
# a bug's ValueError among them, propagates.  An input file that is no
# text fails to decode, and that is a usage error.
_ERROR_EXITS = {
    f"{__package__}.expr.ExprSyntaxError": EXIT_PARSE,
    f"{__package__}.chart.ChartFormatError": EXIT_PARSE,
    f"{__package__}.diagram.DiagramSyntaxError": EXIT_PARSE,
    f"{__package__}.derive.CertificateSyntaxError": EXIT_PARSE,
    f"{__package__}.diagram.DiagramTypeError": EXIT_TYPE,
    f"{__package__}.derive.SynthesisFailure": EXIT_REJECTED,
    f"{__package__}.derive.CertificateError": EXIT_REJECTED,
    f"{__package__}.chart.ExpansionBudgetError": EXIT_BUDGET,
    "builtins.UnicodeDecodeError": EXIT_USAGE,
}


def _resolve(arg: str) -> str:
    if "\n" in arg or "\r" in arg:  # inline text, never a path
        return arg
    try:
        if os.path.isfile(arg):
            with open(arg) as f:
                return f.read()
    except OSError:
        pass
    return arg


def _state_budget(text):
    """The value of --max-states: an int of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _alphabet(spec):
    """The value of --alphabet: its letters, from "abc", "a,b,c" or "a b c"."""
    from . import chart
    letters = set()
    for token in spec.replace(",", " ").split():
        letters.update(token)
    if not letters:
        raise argparse.ArgumentTypeError("empty alphabet")
    bad = sorted(l for l in letters if not chart._valid_letter(l))
    if bad:
        raise argparse.ArgumentTypeError(f"invalid alphabet letters: {', '.join(bad)}")
    return letters


def _eps(text):
    """The value of --eps: a rational in [0, 1]."""
    from . import derive
    try:
        return derive._bound(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _read(arg, args, left=None):
    """One input in the syntax --format names, its action letters
    restricted to --alphabet, as that format's reader takes it: chart
    text read straight into a numbered chart, diagram text as
    diagram._read_text takes it, or expression text read straight into
    a nameless node, as an expr._Read.  A right input is read beside the
    left one: a chart numbered after the left one's states, an
    expression into the left one's table."""
    text = _resolve(arg)
    if args.format == "chart":
        from . import chart
        return chart._read_chart(text, args.alphabet, 0 if left is None else len(left.names))
    if args.format == "diag":
        from . import diagram
        return diagram._read_text(text, args.alphabet)
    from . import expr
    table = expr._Table() if left is None else left.table
    return expr._Read(table, expr._read(text, table, args.alphabet))


def _inputs(args):
    """The left and the right input, read in that order."""
    left = _read(args.left, args)
    return left, _read(args.right, args, left)


def _compare(args):
    """One refinement of both inputs: their numbered joint, whose rows are
    the seed pairs, the refinement, and the least level of the rows
    (math.inf when all are bisimilar)."""
    from . import bisim
    joint, refinement = bisim._refine_pair(*_inputs(args), args.max_states)
    return joint, refinement, refinement.least_level(joint.rows)


def _distance(level) -> str:
    """The distance 2^-level as text: 0 for math.inf, 1 or 1/2^level,
    however large the level."""
    from . import chart
    if level == math.inf:
        return "0"
    return "1" if level == 0 else "1/" + chart._decimal(1 << level)


def _cmd_dist(args):
    joint, refinement, level = _compare(args)
    lines = [f"{_distance(level)} ({'bisimilar' if level == math.inf else f'level {level}'})"]
    if args.table:  # a header row of the state names, then one row per state
        # every name is a str, so str order is state_key order
        names = [joint.name(i) for i in range(len(joint.succ))]
        order = sorted(range(len(names)), key=names.__getitem__)
        lines.append("\t".join(["", *(names[y] for y in order)]))
        lines += ["\t".join([names[x], *(_distance(refinement.level(x, y)) for y in order)])
                  for x in order]
    return EXIT_OK, "\n".join(lines) + "\n"


def _cmd_bisim(args):
    joint, refinement, level = _compare(args)
    if level != math.inf:
        return EXIT_USAGE, f"not bisimilar (level {level + 1})\n"
    from . import bisim, chart
    lines = ["bisimilar"]
    for i, (x, y) in enumerate(joint.rows, start=1):
        tag = f"row {i}\t" if args.format == "diag" else ""
        # a side ranges over all of a chart's states, else over what its seed
        # reaches, and its states are named as in their input
        sides = ((range(joint.split), range(joint.split, len(joint.succ)))
                 if args.format == "chart" else
                 (chart._reach(joint.succ, x), chart._reach(joint.succ, y)))
        w = bisim.witness_pairs(refinement, *sides, joint.local)
        for q1, q2 in sorted(w, key=lambda pr: (chart.state_key(pr[0]),
                                                chart.state_key(pr[1]))):
            lines.append(f"{tag}{q1}\t{q2}")
    return EXIT_OK, "\n".join(lines) + "\n"


def _cmd_strat(args):
    from . import bisim
    level = bisim.stratified_level(*_inputs(args), args.max_states)
    return EXIT_OK, ("inf" if level == math.inf else str(level)) + "\n"


def _cmd_compile(args):
    """The chart that the input's reader builds, its states printed by
    number: an expression's numbered breadth-first from its start, a
    diagram's open chart as _close numbers it, and a chart's states in
    declaration order, every one kept."""
    from . import chart
    x = _read(args.input, args)
    if args.format == "chart":
        succ, outs, start = x.succ, x.outs, x.start
    elif args.format == "diag":
        from . import diagram
        (dom, cod), parts = diagram._parts(x)
        if dom != ">" or "<" in cod:
            raise diagram.DiagramTypeError(
                "compilation needs one forward input and forward outputs; "
                "bend the diagram first")
        succ, outs, (start,) = diagram._close(*parts, args.max_states)
    else:
        from . import expr
        joint = expr._joint(x.table, [x.node], args.max_states)
        succ, outs, ((start,),) = joint.succ, joint.outs, joint.rows
    return EXIT_OK, chart._chart_text(range(len(succ)), succ, outs, start)


def _cmd_derive(args):
    from . import derive
    cert = derive.synthesize(*_inputs(args), eps=args.eps, max_states=args.max_states)
    return EXIT_OK, derive.format_cert(cert) + "\n"


def _cmd_check(args):
    from . import chart, derive
    cert = derive.parse_cert(_resolve(args.cert))
    bound = derive.check(cert, *_inputs(args), max_states=args.max_states)
    return EXIT_OK, chart._ratio(bound) + "\n"


def _cmd_render(args):
    if args.format == "diag":  # term_to_dot draws the term
        from . import diagram
        t = diagram.parse_term(_resolve(args.input), alphabet=args.alphabet)
        diagram.typecheck(t)
        return EXIT_OK, diagram.term_to_dot(t)
    x = _read(args.input, args)
    c = x.chart(args.max_states) if args.format == "expr" else x.chart()
    from . import chart
    return EXIT_OK, chart.chart_to_dot(c)


def _cmd_axioms(args):
    from . import diagram
    lines = []
    if not args.check:
        for name, lhs, rhs in diagram.axiom_catalog():
            lines.append(f"{name}: {diagram.format_term(lhs)} = {diagram.format_term(rhs)}")
        return EXIT_OK, "\n".join(lines) + "\n"
    from . import bisim  # each law is decided on open charts, as a diagram query is
    ok = True
    for name, lhs, rhs in diagram.axiom_catalog():
        holds = bisim.stratified_level(lhs, rhs) == math.inf
        ok = ok and holds
        lines.append(f"{name}: {'holds' if holds else 'FAILS'}")
    control = bisim.stratified_level(*diagram.c1_copy_pair()) == math.inf
    ok = ok and not control
    lines.append("act-copy: "
                 + ("fails as expected" if not control else "UNEXPECTEDLY HOLDS"))
    return (EXIT_OK if ok else EXIT_REJECTED), "\n".join(lines) + "\n"


# Each subcommand once: its name, help, positionals, own options, the
# function that runs it, and whether it takes the input options.
_COMMANDS = (
    ("dist", "exact distance and stratified level", ("left", "right"),
     {"--table": dict(action="store_true",
                      help="also dump the full distance table as TSV")},
     _cmd_dist, True),
    ("bisim", "bisimilarity with witness dump", ("left", "right"), {}, _cmd_bisim, True),
    ("strat", "largest level n with s1 ~(n) s2", ("left", "right"), {}, _cmd_strat, True),
    ("compile", "expression, diagram or chart to chart text", ("input",), {},
     _cmd_compile, True),
    ("derive", "synthesize a distance certificate", ("left", "right"),
     {"--eps": dict(type=_eps, default=None, metavar="p/q",
                    help="requested bound (default: the exact distance)")},
     _cmd_derive, True),
    ("check", "validate a distance certificate", ("cert", "left", "right"), {},
     _cmd_check, True),
    ("render", "DOT output for an input", ("input",), {}, _cmd_render, True),
    ("axioms", "list or check the axiom catalogue", (),
     {"--check": dict(action="store_true",
                      help="verify every axiom and the negative control")},
     _cmd_axioms, False),
)


@functools.cache
def _build_parser():
    from .chart import MAX_STATES
    parser = argparse.ArgumentParser(
        prog="chartdist",
        description="Exact behavioural distances, bisimilarity, diagram "
                    "compilation, and distance certificates.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, summary, positionals, options, func, inputs in _COMMANDS:
        p = subs.add_parser(name, help=summary)
        for arg in positionals:
            p.add_argument(arg)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        if inputs:
            p.add_argument("--format", choices=["expr", "diag", "chart"], default="expr",
                           help="input syntax (default %(default)s)")
            p.add_argument("--alphabet", type=_alphabet, default=None,
                           help="restrict expression letters, e.g. 'a,b'")
            p.add_argument("--max-states", type=_state_budget, default=MAX_STATES,
                           help="state budget for expansions (default %(default)s)")
        p.add_argument("-o", dest="output", default=None, metavar="FILE",
                       help="write the report to FILE instead of stdout" if inputs else None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        code, text = args.func(args)
    except (RecursionError, MemoryError):
        print("error: input too deeply nested", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as e:
        cls = type(e)
        exit_code = _ERROR_EXITS.get(f"{cls.__module__}.{cls.__qualname__}")
        if exit_code is None:
            raise
        print(f"error: {e}", file=sys.stderr)
        return exit_code
    if args.output:
        try:
            with open(args.output, "w") as f:
                f.write(text)
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
