"""No function of the library calls itself, so no recursion depth grows
with the input.  The recursive reference dagger lives in tests/helpers."""

import ast
from pathlib import Path

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
