"""Linear-programming substrate.

An array-native LP modelling layer (variable blocks, COO constraint blocks,
duals) over the HiGHS solver scipy ships, plus the top-k
(percentile-cost proxy) encodings from Section 4.2 of the paper.
This replaces the Gurobi dependency of the original Pretium implementation.
"""

from .errors import (InfeasibleError, LPError, ModelError, SolverError,
                     SolverTimeout, UnboundedError)
from .model import EQ, GE, LE, ConstraintBlock, Model, VariableBlock
from .solver import (HIGHSPY_AVAILABLE, SOLVER_BACKENDS, HighsSession,
                     ScipySession, Solution, SolverSession, session_for,
                     solve_model)
from .topk import (TOPK_ENCODINGS, add_sum_topk_coo, sum_topk_exact,
                   topk_template)

__all__ = [
    "ConstraintBlock", "EQ", "GE", "HIGHSPY_AVAILABLE",
    "HighsSession", "InfeasibleError", "LE",
    "LPError", "Model", "ModelError", "SOLVER_BACKENDS",
    "ScipySession", "Solution", "SolverError",
    "SolverSession", "SolverTimeout", "TOPK_ENCODINGS", "UnboundedError",
    "VariableBlock",
    "add_sum_topk_coo", "session_for", "solve_model",
    "sum_topk_exact", "topk_template",
]
