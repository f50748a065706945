"""A fuzzer of the command line, run in one process.

    python3 tools/fuzz_cli.py [--seconds N] [--seed S]   (defaults: 10 s, seed 1)

Calls ``chartdist.cli.main`` over and over until the time is up.  Each
call runs one command (``dist``, with and without ``--table``,
``bisim``, ``strat``, ``compile``, ``derive``, ``check``, ``render`` or
``axioms``, with and without ``--check``) in one of the three formats,
with options drawn from a short list of good and bad values.  Its inputs
are texts of ``corpus/``: the expressions and diagrams of ``pairs.txt``,
the chart that ``compile`` prints for each of those expressions, and the
texts of the ``malformed_*.json`` files.  ``check`` gets the certificates
that ``derive`` prints for pairs of those texts, and those of
``malformed_certificates.json``.  Half the inputs are mutated copies:
one to three times, a character or a token (a word, a run of blanks or
another character) is deleted, duplicated, swapped with another or
inserted.  A text sometimes goes to a format that is not its own, and a
two-input command gets the same text twice in a fifth of its calls.

Every input follows ``--``, so no mutated text is read as an option, and
the calls run in an empty temporary directory, so no text names a file.
The output of each call is discarded.  The fuzzer stops at the first call
that raises an uncaught exception or exits with a code outside 0-5: it
prints the call's argv and the traceback, and exits 1.  Otherwise it
prints the number of calls and exits 0.

The program is imported from the ``src/`` beside this script; no bytecode
is written, and the temporary directory is removed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMATS = ("expr", "chart", "diag")
COMMANDS = ("dist", "bisim", "strat", "compile", "derive", "check", "render", "axioms")
# the flag that a command takes, in half of its calls
FLAGS = {"dist": "--table", "axioms": "--check"}
# a token is a word, a run of blanks or any other character
TOKEN = re.compile(r"\w+|\s+|.", re.S)
# what an insertion puts in, besides a token of the text itself
INSERTS = ("(", ")", ".", "+", ";", "*", "0", "1", "/", "-", "\"", "\\", "\n", " ", "#",
           "mu", "v1", "v0", "v99999999999", "a", "z", "state", "start", "trans", "out",
           "alphabet", "act(", "copy", "id(>)", "sym(>,<)", "(top)", "(weaken", "(bisim)",
           "(coupling", "(move", "1/2", "1/0", "2/1", "é", "\t")
OPTIONS = (("--max-states", ("1", "2", "5", "20", "0", "x")),
           ("--alphabet", ("a", "a,b", "a b c", "A", ",")),
           ("--eps", ("1/2", "0", "1", "3/4", "2", "x", "1/3")))


def corpus_texts(main):
    """The texts of each format, and the (format, certificate, left, right)
    of each certificate, from corpus/ and from what main prints for it."""
    corpus = os.path.join(ROOT, "corpus")
    with open(os.path.join(corpus, "pairs.txt")) as f:
        pairs = [line.rstrip("\n").split("\t") for line in f
                 if line.strip() and not line.startswith("#")]

    def load(name):
        with open(os.path.join(corpus, name)) as f:
            return json.load(f)

    good = {"expr": [e for e, _ in pairs], "diag": [d for _, d in pairs], "chart": []}
    for e, _ in pairs:
        code, out = run(main, ["compile", "--", e])
        if code == 0:
            good["chart"].append(out)
    texts = {"expr": good["expr"] + [r["text"] for r in load("malformed_expressions.json")],
             "diag": good["diag"] + [r[side] for r in load("malformed_diagrams.json")
                                     for side in ("left", "right")],
             "chart": good["chart"] + [r["text"] for r in load("malformed_charts.json")]}
    certs = [(r["format"], r["cert"], r["left"], r["right"])
             for r in load("malformed_certificates.json")]
    for fmt, inputs in good.items():
        for left, right in zip(inputs, inputs[1:] + inputs[:1]):
            code, out = run(main, ["derive", "--format", fmt, "--", left, right])
            if code == 0:
                certs.append((fmt, out, left, right))
    return texts, certs


def run(main, argv):
    """The exit code of main(argv) and what it printed to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def mutate(rng, text):
    """text with one to three random edits of a character or a token."""
    for _ in range(rng.randint(1, 3)):
        units = list(text) if rng.random() < 0.5 else TOKEN.findall(text)
        if not units:
            units = [""]
        i, j = rng.randrange(len(units)), rng.randrange(len(units))
        edit = rng.randrange(4)
        if edit == 0:
            del units[i]
        elif edit == 1:
            units.insert(i, units[i])
        elif edit == 2:
            units[i], units[j] = units[j], units[i]
        else:
            units.insert(i, rng.choice(INSERTS) if rng.random() < 0.5 else units[j])
        text = "".join(units)
    return text


def draw(rng, texts, certs):
    """One argv: a command, a format, options and inputs."""
    argv = [rng.choice(COMMANDS)]
    if argv[0] in FLAGS and rng.random() < 0.5:
        argv.append(FLAGS[argv[0]])
    if argv[0] == "axioms":
        return argv
    if argv[0] == "check":
        fmt, cert, left, right = rng.choice(certs)
        if rng.random() < 0.1:
            fmt = rng.choice(FORMATS)
    else:
        fmt = rng.choice(FORMATS)
    argv += ["--format", fmt]
    for flag, values in OPTIONS:
        if rng.random() < 0.15 and (flag != "--eps" or argv[0] == "derive"):
            argv += [flag, rng.choice(values)]

    def text():
        t = rng.choice(texts[fmt] if rng.random() < 0.95 else texts[rng.choice(FORMATS)])
        return mutate(rng, t) if rng.random() < 0.5 else t

    if argv[0] == "check":
        if rng.random() < 0.5:
            cert = mutate(rng, cert)
        if rng.random() < 0.3:
            left = mutate(rng, left) if rng.random() < 0.5 else text()
            right = mutate(rng, right) if rng.random() < 0.5 else text()
        return argv + ["--", cert, left, right]
    if argv[0] in ("compile", "render"):
        return argv + ["--", text()]
    left = text()
    return argv + ["--", left, left if rng.random() < 0.2 else text()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=10.0, help="run time (default %(default)s)")
    ap.add_argument("--seed", type=int, default=1, help="random seed (default %(default)s)")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from chartdist import cli

    rng = random.Random(args.seed)
    calls = 0
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as empty:
        os.chdir(empty)
        try:
            texts, certs = corpus_texts(cli.main)
            deadline = time.monotonic() + args.seconds
            while time.monotonic() < deadline:
                call = draw(rng, texts, certs)
                calls += 1
                try:
                    code, _ = run(cli.main, call)
                except Exception:
                    print(f"uncaught exception after {calls} calls, argv {call!r}")
                    traceback.print_exc(file=sys.stdout)
                    return 1
                if code not in range(6):
                    print(f"exit code {code!r} after {calls} calls, argv {call!r}")
                    return 1
        finally:
            os.chdir(here)
    print(f"{calls} calls in {args.seconds:g} s, seed {args.seed}: no uncaught exception, "
          "every exit code in 0-5")
    return 0


if __name__ == "__main__":
    sys.exit(main())
