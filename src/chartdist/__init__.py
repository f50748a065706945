"""Exact behavioural distances for nondeterministic processes.

Processes are given as recursive expressions, as charts (finite
transition systems with variable outputs), or as string diagrams.
The package computes strong bisimilarity, the stratified hierarchy,
and the exact discounted behavioural distance, and it can synthesize
and check finitary certificates for distance bounds.
"""

import sys as _sys

__version__ = "0.1.0"

# The root holds the public names of six core modules, each module's
# __all__ being the one list of them.  It loads them on first use (PEP
# 562), so that ``import chartdist.cli`` loads none of them and a query
# loads only the modules it runs.  The reference semantics,
# chartdist.regbeh, is not among them.
_CORE = ("bisim", "chart", "derive", "diagram", "expr", "metric")
_SUBMODULES = _CORE + ("cli", "regbeh")
_loaded = False


def _submodule(name):
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    # Called only for a name not bound here.  A submodule asked for by
    # name, as ``from . import chart`` asks, loads alone.  Any other
    # public name loads the core, and so does "__all__", for ``from
    # chartdist import *``: finding no __all__, it takes every public
    # name bound here, as it did when the root star-imported the core.
    if name in _SUBMODULES:
        return _submodule(name)
    if name[:2] != "__" or name == "__all__":
        _load_core()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _load_core()
    return list(globals())


def _load_core():
    global _loaded
    if not _loaded:
        names = globals()
        for module in map(_submodule, _CORE):
            names.update((name, getattr(module, name)) for name in module.__all__)
        _loaded = True
