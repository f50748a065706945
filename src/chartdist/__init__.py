"""Exact behavioural distances for nondeterministic processes.

Processes are given as recursive expressions, as charts (finite
transition systems with variable outputs), or as string diagrams.
The package computes strong bisimilarity, the stratified hierarchy,
and the exact discounted behavioural distance, and it can synthesize
and check finitary certificates for distance bounds.
"""

# Each module's __all__ is the one list of its public names; the reference
# semantics, chartdist.regbeh, is loaded only when a reference is called.
from .bisim import *  # noqa: F401,F403
from .chart import *  # noqa: F401,F403
from .derive import *  # noqa: F401,F403
from .diagram import *  # noqa: F401,F403
from .expr import *  # noqa: F401,F403
from .metric import *  # noqa: F401,F403

__version__ = "0.1.0"
