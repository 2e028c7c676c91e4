"""Constraint solving: CDCL SAT core, bit-blaster, and BV frontend."""

from .sat import SATBudgetExceeded, SATResult, SATSolver, solve_clauses
from .bitblast import BitBlaster, BlastError
from .solver import Solver, SolverResult, Status

__all__ = [
    "BitBlaster",
    "BlastError",
    "SATBudgetExceeded",
    "SATResult",
    "SATSolver",
    "Solver",
    "SolverResult",
    "Status",
    "solve_clauses",
]
