"""Covering and packing of partially ordered items.

A toolkit around minimum-cardinality covering of sized out-trees by
ancestor-closed capacity-bounded sets: a factor-2 approximation with
per-instance bounds and audit traces, exact reference solvers for the four
related selection/packing problems, constructive reductions between them with
bidirectional solution maps, seeded instance generators, and a verification
harness wired into a CLI.

The package root exports the tree-covering entry points below; everything
else is imported from its submodule (``pocover.reductions``,
``pocover.serialize``, ...).
"""

from .model import CtInstance, InputError, SizedOutTree
from .treecover import bounds, cover
from .exact import exact_ct
from .verify import verify_ct

__version__ = "0.1.0"

__all__ = [
    "CtInstance",
    "InputError",
    "SizedOutTree",
    "bounds",
    "cover",
    "exact_ct",
    "verify_ct",
]
