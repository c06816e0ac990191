"""The ``scipy.optimize.linprog`` route ``src/`` took to HiGHS before the
array-native lane (see DESIGN, "LP hot path"): ``_assemble`` splitting a
model into ``A_ub`` / ``A_eq`` CSR blocks plus a list of ``(lb, ub)``
tuples, and ``solve_model`` calling ``linprog(method="highs")`` on them.
Kept verbatim as the oracle ``tests/lp/test_native_solve.py`` demands
byte-identical solver inputs and bit-identical results from.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.lp.errors import InfeasibleError, SolverError, SolverTimeout, \
    UnboundedError
from repro.lp import solver
from repro.lp.solver import _CODE_EQ, _CODE_GE, Solution, _collect_entries, \
    _objective_vector
from repro.telemetry import get_tracer

#: linprog status codes (scipy docs): 0 ok, 1 iteration limit, 2 infeasible,
#: 3 unbounded, 4 numerical trouble.
_STATUS_OK = 0
_STATUS_LIMIT = 1
_STATUS_INFEASIBLE = 2
_STATUS_UNBOUNDED = 3


def _assemble(model):
    """Build (c, A_ub, b_ub, A_eq, b_eq, bounds, row maps) from a model.

    Returns, besides the linprog inputs, the per-constraint arrays
    (``eq_mask``, ``eq_row``, ``ub_row``, ``flip``) needed to re-orient
    duals.
    """
    n = model.num_variables
    m = model.num_constraints

    c, obj_constant = _objective_vector(model, n)
    if model.sense == "max":
        c = -c

    codes, rhs, entry_con, entry_col, entry_val = _collect_entries(model)

    eq_mask = codes == _CODE_EQ
    flip = np.where(codes == _CODE_GE, -1.0, 1.0)
    # Row number of each constraint within its (eq | ub) matrix, assigned
    # in creation order — exactly the numbering the per-constraint loop
    # used to produce.
    eq_row = np.cumsum(eq_mask) - 1
    ub_row = np.cumsum(~eq_mask) - 1
    n_eq = int(eq_mask.sum())
    n_ub = m - n_eq

    entry_eq = eq_mask[entry_con]
    A_eq = None
    if n_eq:
        sel = entry_eq
        A_eq = sparse.csr_matrix(
            (entry_val[sel], (eq_row[entry_con[sel]], entry_col[sel])),
            shape=(n_eq, n))
    A_ub = None
    if n_ub:
        sel = ~entry_eq
        con = entry_con[sel]
        A_ub = sparse.csr_matrix(
            (entry_val[sel] * flip[con], (ub_row[con], entry_col[sel])),
            shape=(n_ub, n))
    b_eq = rhs[eq_mask]
    b_ub = rhs[~eq_mask] * flip[~eq_mask]
    bounds = model.bounds()
    return c, obj_constant, A_ub, b_ub, A_eq, b_eq, bounds, \
        (eq_mask, eq_row, ub_row, flip)


def solve_model(model, time_limit=None, maxiter=None) -> Solution:
    """Solve ``model`` with HiGHS and return a :class:`Solution`.

    ``time_limit`` (seconds) and ``maxiter`` bound the solve; hitting
    either budget raises :class:`SolverTimeout` so callers can retry with
    a larger budget or degrade (see :mod:`repro.faults.resilience`).

    Raises
    ------
    InfeasibleError, UnboundedError, SolverTimeout, SolverError
        On the corresponding solver outcomes.
    """
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if maxiter is not None:
        options["maxiter"] = int(maxiter)
    with get_tracer().span("lp.solve", model=model.name,
                           sense=model.sense) as span:
        with get_tracer().span("lp.assemble", model=model.name):
            c, obj_constant, A_ub, b_ub, A_eq, b_eq, bounds, row_maps = \
                _assemble(model)
        span.set(n_vars=model.num_variables,
                 n_constraints=model.num_constraints)

        result = linprog(c, A_ub=A_ub,
                         b_ub=b_ub if A_ub is not None else None,
                         A_eq=A_eq, b_eq=b_eq if A_eq is not None else None,
                         bounds=bounds, method="highs",
                         options=options or None)
        span.set(status=int(result.status),
                 iterations=int(getattr(result, "nit", 0)))

        if result.status == _STATUS_INFEASIBLE:
            raise InfeasibleError(f"model {model.name!r} is infeasible")
        if result.status == _STATUS_UNBOUNDED:
            raise UnboundedError(f"model {model.name!r} is unbounded")
        if result.status == _STATUS_LIMIT:
            raise SolverTimeout(
                f"model {model.name!r}: budget exhausted before convergence "
                f"(time_limit={time_limit}, maxiter={maxiter}: "
                f"{result.message})")
        if result.status != _STATUS_OK:
            raise SolverError(f"model {model.name!r}: solver failed "
                              f"(status {result.status}: {result.message})")

    # linprog minimises; flip back for a max model.
    sign = -1.0 if model.sense == "max" else 1.0
    objective = sign * float(result.fun) + obj_constant

    # scipy marginals are d(min objective)/d(rhs).  Convert to the user's
    # orientation: for max models d(max objective)/d(rhs) = -marginal; a
    # flipped (>=) row additionally changes the rhs sign.
    eq_mask, eq_row, ub_row, flip = row_maps
    duals = np.zeros(model.num_constraints)
    sense_sign = -1.0 if model.sense == "max" else 1.0
    if A_ub is not None:
        ub_marginals = np.asarray(result.ineqlin.marginals)
        sel = ~eq_mask
        duals[sel] = sense_sign * flip[sel] * ub_marginals[ub_row[sel]]
    if A_eq is not None:
        eq_marginals = np.asarray(result.eqlin.marginals)
        duals[eq_mask] = sense_sign * eq_marginals[eq_row[eq_mask]]

    return Solution(model, np.asarray(result.x), objective, duals)


def same_bytes(x, y) -> bool:
    """Same dtype, shape and bytes (so -0.0 != 0.0 and NaN == NaN)."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape \
        and x.tobytes() == y.tobytes()


def assert_models_identical(a, b):
    """The two models assemble to the same solver inputs, byte for byte."""
    lp_a, lp_b = solver._assemble(a), solver._assemble(b)
    assert lp_a.constant == lp_b.constant
    assert lp_a.matrix.shape == lp_b.matrix.shape
    for name in ("c", "lhs", "rhs", "lb", "ub", "order", "flip"):
        assert same_bytes(getattr(lp_a, name), getattr(lp_b, name)), name
    for name in ("indptr", "indices", "data"):
        assert same_bytes(getattr(lp_a.matrix, name),
                          getattr(lp_b.matrix, name)), name
