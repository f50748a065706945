"""No function of the library calls itself, so no recursion depth grows
with the input.  The recursive reference dagger lives in tests/helpers.
Deep values of each nested node family also compare, hash, print, copy
and pickle, since a dunder protocol recurses through no call that the
source scan sees."""

import ast
import copy
import io
import pickle
from pathlib import Path

import pytest

from chartdist import format_expr, format_term, parse_expr, parse_term
from chartdist.derive import format_cert, parse_cert, synthesize

SRC = Path(__file__).resolve().parent.parent / "src" / "chartdist"

# module.qualified name of each function that may call itself
ALLOWED = set()


def _calls_itself(call, name):
    """A call of name, bare or as self.name or cls.name."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id == name
    return (isinstance(f, ast.Attribute) and f.attr == name
            and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"))


def self_calling(source, module):
    """Qualified names of the functions in source that call themselves."""
    found = set()
    todo = [(ast.parse(source), module + ".")]
    while todo:
        node, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_calls_itself(call, child.name) for call in ast.walk(child)
                       if isinstance(call, ast.Call)):
                    found.add(prefix + child.name)
                todo.append((child, prefix + child.name + "."))
            elif isinstance(child, ast.ClassDef):
                todo.append((child, prefix + child.name + "."))
            else:
                todo.append((child, prefix))
    return found


def test_detector_sees_direct_self_calls():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    return h()\n"
        "class A:\n"
        "    def m(self):\n        return self.m()\n"
        "    @classmethod\n    def c(cls):\n        return cls.c()\n"
        "    def __init__(self):\n        super().__init__()\n"
        "    def __setattr__(self, k, v):\n        object.__setattr__(self, k, v)\n"
        "    def level(self):\n        return self.other.level()\n")
    assert self_calling(source, "m") == {"m.f", "m.A.m", "m.A.c"}


def test_only_the_reference_dagger_recurses():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= self_calling(path.read_text(), path.stem)
    assert found == ALLOWED


DEPTH = 1500


def _chain(n):
    return parse_term(" ; ".join(["act(a)"] * n + ["del"]))


# (id, a deep value built from scratch, its reader, its printer)
DEEP = [
    ("expr", lambda: parse_expr("a." * DEPTH + "0"), parse_expr, format_expr),
    ("mu", lambda: parse_expr("".join(f"mu v{i}.a." for i in range(1, DEPTH + 1)) + "v1"),
     parse_expr, format_expr),
    ("term", lambda: _chain(DEPTH), parse_term, format_term),
    ("cert", lambda: synthesize(_chain(DEPTH), _chain(DEPTH + 1)), parse_cert, format_cert),
]


@pytest.mark.parametrize("build, read, write", [row[1:] for row in DEEP],
                         ids=[row[0] for row in DEEP])
def test_deep_values_compare_hash_print_copy_and_pickle(build, read, write):
    value = build()
    other = read(write(value))
    assert value == other and not value != other
    assert hash(value) == hash(other)
    assert repr(value) == repr(other) and str(value) == str(other)
    assert eval(repr(value)) == value
    printed = io.StringIO()
    print(value, file=printed)
    assert printed.getvalue() == f"{value}\n"
    for twin in (copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
    for protocol in (0, pickle.HIGHEST_PROTOCOL):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value and write(back) == write(value)
