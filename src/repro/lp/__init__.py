"""Linear-programming substrate.

A compact algebraic modelling layer over the HiGHS solver scipy ships, plus the
top-k (percentile-cost proxy) encodings from Section 4.2 of the paper.
This replaces the Gurobi dependency of the original Pretium implementation.
"""

from .errors import (InfeasibleError, LPError, ModelError, SolverError,
                     SolverTimeout, UnboundedError)
from .model import (EQ, GE, LE, Constraint, ConstraintBlock, LinExpr, Model,
                    Variable, VariableBlock, quicksum, weighted_sum)
from .solver import (HIGHSPY_AVAILABLE, SOLVER_BACKENDS, HighsSession,
                     ScipySession, Solution, SolverSession, session_for,
                     solve_model)
from .topk import (TOPK_ENCODINGS, add_sum_topk, add_sum_topk_coo,
                   add_sum_topk_cvar, add_sum_topk_sorting, sum_topk_exact,
                   topk_constraint_count, topk_template)

__all__ = [
    "Constraint", "ConstraintBlock", "EQ", "GE", "HIGHSPY_AVAILABLE",
    "HighsSession", "InfeasibleError", "LE",
    "LPError", "LinExpr", "Model", "ModelError", "SOLVER_BACKENDS",
    "ScipySession", "Solution", "SolverError",
    "SolverSession", "SolverTimeout", "TOPK_ENCODINGS", "UnboundedError",
    "Variable", "VariableBlock",
    "add_sum_topk", "add_sum_topk_coo", "add_sum_topk_cvar",
    "add_sum_topk_sorting", "quicksum", "session_for", "solve_model",
    "sum_topk_exact", "topk_constraint_count", "topk_template",
    "weighted_sum",
]
