"""Optimization substrates: LP/MILP backends, piecewise grids, search."""

from repro.solvers.assembly import ConstraintBuilder, VariableLayout
from repro.solvers.binary_search import BinarySearchResult, binary_search_max
from repro.solvers.bnb import solve_bnb
from repro.solvers.lp import LPResult, solve_lp
from repro.solvers.milp_backend import MILPProblem, MILPResult, solve_milp
from repro.solvers.nonconvex import MultiStartResult, maximize_multistart
from repro.solvers.piecewise import SegmentGrid

__all__ = [
    "BinarySearchResult",
    "ConstraintBuilder",
    "LPResult",
    "MILPProblem",
    "MILPResult",
    "MultiStartResult",
    "SegmentGrid",
    "VariableLayout",
    "binary_search_max",
    "maximize_multistart",
    "solve_bnb",
    "solve_lp",
    "solve_milp",
]
