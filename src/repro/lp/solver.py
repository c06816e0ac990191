"""HiGHS backend: assemble a :class:`~repro.lp.model.Model` and solve it.

:func:`_assemble` stacks a model into the row-bounded form HiGHS takes
(``lhs <= A x <= rhs``, ``lb <= x <= ub``, ``A`` one canonical CSC) and
:func:`solve_model` hands those arrays to the HiGHS bindings scipy ships
(``scipy.optimize._highspy._core``, which ``scipy.optimize.linprog``
itself drives).  The bindings are loaded by file path, so neither
``scipy.optimize``'s package init nor ``scipy.sparse`` is imported; the
CSC is built in numpy (:func:`_csc`).  The layout is the one
``linprog(method="highs")`` built from the same model, so HiGHS
receives the same bytes and returns the same vertex of a degenerate LP,
and every guard ``linprog`` applied is kept: non-finite inputs are
rejected before the solver runs, HiGHS's statuses map onto this
package's errors, and an "optimal" point is re-checked against bounds
and rows.  Dual values are re-oriented so that callers always see them
in the model's own sense (see :class:`Solution`).

Assembly is fully vectorised: a model's
:class:`~repro.lp.model.ConstraintBlock` triplets are concatenated as-is,
and the GE-row flip, the row stacking and the dual re-orientation are all
numpy operations.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import NamedTuple

import numpy as np

from ..telemetry import get_registry, get_tracer
from .errors import InfeasibleError, ModelError, SolverError, SolverTimeout, \
    UnboundedError
from .model import SENSE_CODES, ConstraintBlock, EQ, GE, LE, Model, \
    VariableBlock

#: Whether the native ``highspy`` bindings are importable.  The import is
#: probed lazily (spec only) so merely loading this module never pays for
#: — or fails on — an optional dependency.
HIGHSPY_AVAILABLE = importlib.util.find_spec("highspy") is not None

#: Recognised values of the ``solver_backend`` knob.
SOLVER_BACKENDS = ("scipy", "highs", "auto")

#: The classes, enums and namespaces read off scipy's HiGHS bindings.  The
#: module is private to scipy, so they are checked once, at import: a
#: scipy without one fails there, naming it, instead of mid-solve.
_BINDINGS = ("HighsLp", "HighsOptions", "_Highs", "HighsStatus",
             "HighsModelStatus", "MatrixFormat", "HighsDebugLevel",
             "simplex_constants")

#: The bindings' canonical module name.
_CORE = "scipy.optimize._highspy._core"


def _core_path() -> str | None:
    """The bindings' extension file, located without importing scipy."""
    scipy = importlib.util.find_spec("scipy")
    roots = scipy.submodule_search_locations if scipy is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_bindings(names=_BINDINGS):
    """Load scipy's HiGHS bindings — the only place that does.

    The extension is loaded by file path, so ``scipy.optimize``'s package
    init (about 570 modules, ``scipy.sparse`` and ``scipy.linalg`` among
    them) never runs.  It is registered under its canonical name before
    it executes: a later ``import scipy.optimize`` then reuses this
    module, where a second copy of the pybind11 extension would clash.
    """
    needs = f"repro.lp needs scipy>=1.15 ({_CORE}"
    core = sys.modules.get(_CORE)
    if core is None:
        path = _core_path()
        if path is None:
            raise ImportError(f"{needs} is missing)")
        spec = importlib.util.spec_from_file_location(_CORE, path)
        core = importlib.util.module_from_spec(spec)
        sys.modules[_CORE] = core
        try:
            spec.loader.exec_module(core)
        except ImportError as exc:
            del sys.modules[_CORE]
            raise ImportError(f"{needs} failed to load: {exc})") from exc
    for name in names:
        if not hasattr(core, name):
            raise ImportError(f"{needs} has no {name!r})")
    return core


_core = _load_bindings()

#: What ``linprog``'s post-solve check allowed at its default ``tol=1e-9``
#: (``sqrt(tol) * 10``): how far outside a bound or a row an "optimal"
#: point may sit before it is rejected.
_FEASIBILITY_TOL = float(np.sqrt(1e-9) * 10)

#: HiGHS model status -> (``lp.solve`` span status, error raised).  The
#: span codes are ``linprog``'s, which traces already carry: 0 ok, 1
#: budget hit, 2 infeasible, 3 unbounded, 4 anything else.
_OUTCOMES = {
    _core.HighsModelStatus.kOptimal: (0, None),
    _core.HighsModelStatus.kTimeLimit: (1, SolverTimeout),
    _core.HighsModelStatus.kIterationLimit: (1, SolverTimeout),
    _core.HighsModelStatus.kInfeasible: (2, InfeasibleError),
    _core.HighsModelStatus.kModelError: (2, InfeasibleError),
    _core.HighsModelStatus.kUnbounded: (3, UnboundedError),
}

_CODE_GE = SENSE_CODES[GE]
_CODE_EQ = SENSE_CODES[EQ]


class Solution:
    """The result of solving a model.

    Provides primal values (:meth:`value_array`, :attr:`x`), the objective
    in the model's own orientation (:attr:`objective`) and constraint duals
    (:meth:`dual_array`, :attr:`duals`).

    Dual orientation
    ----------------
    A row's dual is the marginal change of the *model's* objective per
    unit increase of the row's right-hand side.  For a maximisation
    with a binding capacity constraint ``flow <= cap`` this is the familiar
    nonnegative shadow price; for equalities it may take either sign.
    """

    def __init__(self, model: Model, x: np.ndarray, objective: float,
                 duals: np.ndarray) -> None:
        self._model = model
        self._x = x
        self.objective = objective
        self._duals = duals

    def value_array(self, block: VariableBlock) -> np.ndarray:
        """Primal values of a variable block as one array slice."""
        return self._x[block.start:block.stop]

    def dual_array(self, block: ConstraintBlock) -> np.ndarray:
        """Duals of a constraint block as one array slice (row order)."""
        return self._duals[block.start:block.stop]

    @property
    def x(self) -> np.ndarray:
        """Raw primal vector indexed by variable index."""
        return self._x

    @property
    def duals(self) -> np.ndarray:
        """Raw dual vector indexed by global constraint index."""
        return self._duals


def _objective_vector(model: Model, n: int) -> tuple[np.ndarray, float]:
    """Dense objective coefficients and the constant term."""
    if model._objective is None:
        raise ModelError(f"model {model.name!r} has no objective")
    cols, vals, constant = model._objective
    c = np.bincount(cols, weights=vals, minlength=n)[:n] if cols.size \
        else np.zeros(n)
    return c, constant


def _collect_entries(model: Model):
    """Concatenate every constraint block's COO triplets, in creation order.

    Returns ``(codes, rhs, entry_con, entry_col, entry_val)`` — the raw
    per-row sense codes and right-hand sides plus the entry arrays both
    the scipy assembly and the native-HiGHS session build from.
    """
    m = model.num_constraints
    codes = np.empty(m, dtype=np.int8)
    rhs = np.empty(m, dtype=np.float64)
    chunks_con, chunks_col, chunks_val = [], [], []
    for block in model._blocks:
        sl = slice(block.start, block.stop)
        codes[sl] = block.codes
        rhs[sl] = block.rhs
        chunks_con.append(block.rows + block.start)
        chunks_col.append(block.cols)
        chunks_val.append(block.vals)
    if chunks_con:
        entry_con = np.concatenate(chunks_con)
        entry_col = np.concatenate(chunks_col)
        entry_val = np.concatenate(chunks_val)
    else:
        entry_con = np.zeros(0, dtype=np.int64)
        entry_col = np.zeros(0, dtype=np.int64)
        entry_val = np.zeros(0, dtype=np.float64)
    return codes, rhs, entry_con, entry_col, entry_val


class CSC(NamedTuple):
    """A compressed-sparse-column matrix: column ``j``'s row indices and
    values are ``indices`` / ``data`` over ``indptr[j]:indptr[j + 1]``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def _csc(rows, cols, vals, shape: tuple[int, int]) -> CSC:
    """The canonical CSC of COO triplets, as ``scipy.sparse.csc_array``
    builds it: row indices sorted within each column, repeated cells
    summed in creation order, 32-bit ``indptr`` / ``indices``.  (scipy
    sorts with an unstable sort, so a cell repeated three or more times
    may sum in another order there.)"""
    m, n = shape
    key = cols.astype(np.int64) * m + rows
    perm = np.argsort(key, kind="stable")
    key, rows, cols, vals = key[perm], rows[perm], cols[perm], vals[perm]
    if key.size > 1 and (key[1:] == key[:-1]).any():
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        rows, cols = rows[starts], cols[starts]
        vals = np.add.reduceat(vals, starts)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    return CSC(indptr, rows.astype(np.int32), vals, (m, n))


class AssembledLP(NamedTuple):
    """``min c @ x`` s.t. ``lhs <= matrix @ x <= rhs``, ``lb <= x <= ub``.
    Row ``i`` is the model's constraint ``order[i]`` (times ``flip``, -1
    on ``>=`` rows); the first ``n_ub`` rows are the inequalities."""

    c: np.ndarray
    constant: float
    matrix: CSC
    lhs: np.ndarray
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    order: np.ndarray
    flip: np.ndarray
    n_ub: int


def _assemble(model: Model) -> AssembledLP:
    """Stack a model into one row-bounded LP, in ``linprog``'s layout.

    ``>=`` rows are negated into ``<=`` rows; inequality rows come first
    and equality rows after them, each group in creation order; the
    matrix is one canonical CSC (row indices sorted, duplicates summed)
    with 32-bit indices, as HiGHS stores it.
    """
    n = model.num_variables
    m = model.num_constraints

    c, obj_constant = _objective_vector(model, n)
    if model.sense == "max":
        c = -c

    codes, rhs, entry_con, entry_col, entry_val = _collect_entries(model)

    eq_mask = codes == _CODE_EQ
    flip = np.where(codes == _CODE_GE, -1.0, 1.0)
    order = np.concatenate([np.flatnonzero(~eq_mask),
                            np.flatnonzero(eq_mask)])
    n_ub = m - int(np.count_nonzero(eq_mask))
    row_of = np.empty(m, dtype=np.int32)
    row_of[order] = np.arange(m, dtype=np.int32)
    matrix = _csc(row_of[entry_con], entry_col, entry_val * flip[entry_con],
                  (m, n))
    upper = (rhs * flip)[order]
    lower = upper.copy()
    lower[:n_ub] = -np.inf
    return AssembledLP(c, obj_constant, matrix, lower, upper,
                       model.lb, model.ub, order, flip, n_ub)


def _highs_options(time_limit: float | None, maxiter: int | None):
    """The options ``linprog(method="highs")`` set: presolve on, dual
    simplex, silent; budgets only when given."""
    options = _core.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = \
        _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    if time_limit is not None:
        options.time_limit = float(time_limit)
    if maxiter is not None:
        options.simplex_iteration_limit = int(maxiter)
        options.ipm_iteration_limit = int(maxiter)
    return options


def _run_highs(c, indptr, indices, data, lhs, rhs, lb, ub, options):
    """One cold HiGHS solve of the row-bounded LP (``A`` in CSC).

    Returns ``(model_status, message, iterations, solution)``, where
    ``solution`` is ``(x, row_value, row_dual, objective)`` at
    ``kOptimal`` and ``None`` otherwise (only an optimum is safe to
    read).  A model HiGHS refuses to load reports ``kModelError``.
    """
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = rhs.size
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    # Lists cross the binding's vector converters faster than arrays.
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = lb.tolist()
    lp.col_upper_ = ub.tolist()
    lp.row_lower_ = lhs.tolist()
    lp.row_upper_ = rhs.tolist()
    lp.a_matrix_.start_ = indptr.tolist()
    lp.a_matrix_.index_ = indices.tolist()
    lp.a_matrix_.value_ = data.tolist()

    highs = _core._Highs()
    status = None
    if highs.passOptions(options) != _core.HighsStatus.kError:
        if highs.passModel(lp) == _core.HighsStatus.kError:
            status = _core.HighsModelStatus.kModelError
        else:
            highs.run()
    if status is None:
        status = highs.getModelStatus()
    info = highs.getInfo()
    iterations = info.simplex_iteration_count or info.ipm_iteration_count
    solution = None
    if status == _core.HighsModelStatus.kOptimal:
        point = highs.getSolution()
        solution = (np.array(point.col_value), np.array(point.row_value),
                    np.array(point.row_dual), info.objective_function_value)
    return status, highs.modelStatusToString(status), iterations, solution


def _check_finite(model: Model, lp: AssembledLP) -> None:
    """``linprog``'s input guard: no NaN anywhere, and nothing infinite
    but a bound (where it means unbounded)."""
    if lp.c.size == 0:
        raise ModelError(f"model {model.name!r} has no variables")
    finite = np.isfinite(lp.c).all() and np.isfinite(lp.rhs).all() \
        and np.isfinite(lp.matrix.data).all()
    if not finite or np.isnan(lp.lb).any() or np.isnan(lp.ub).any():
        raise ModelError(f"model {model.name!r} holds a NaN, or an "
                         "infinite coefficient or right-hand side")


def _is_feasible(lp: AssembledLP, x, row_value, objective) -> bool:
    """``linprog``'s post-solve check of a point HiGHS called optimal."""
    slack = lp.rhs - row_value
    if np.isnan(x).any() or np.isnan(objective) or np.isnan(slack).any():
        return False
    tol = _FEASIBILITY_TOL
    return bool((x >= lp.lb - tol).all() and (x <= lp.ub + tol).all()
                and (slack[:lp.n_ub] >= -tol).all()
                and (np.abs(slack[lp.n_ub:]) <= tol).all())


def solve_model(model: Model, time_limit: float | None = None,
                maxiter: int | None = None) -> Solution:
    """Solve ``model`` with HiGHS and return a :class:`Solution`.

    ``time_limit`` (seconds) and ``maxiter`` bound the solve; hitting
    either budget raises :class:`SolverTimeout` so callers can retry with
    a larger budget or degrade (see :mod:`repro.faults.resilience`).

    Raises
    ------
    InfeasibleError, UnboundedError, SolverTimeout, SolverError
        On the corresponding solver outcomes.
    ModelError
        When the model holds a NaN (or an infinite coefficient).
    """
    with get_tracer().span("lp.solve", model=model.name,
                           sense=model.sense) as span:
        with get_tracer().span("lp.assemble", model=model.name):
            lp = _assemble(model)
        span.set(n_vars=model.num_variables,
                 n_constraints=model.num_constraints)
        _check_finite(model, lp)

        highs_status, message, iterations, solution = _run_highs(
            lp.c, lp.matrix.indptr, lp.matrix.indices, lp.matrix.data,
            lp.lhs, lp.rhs, lp.lb, lp.ub,
            _highs_options(time_limit, maxiter))
        status, error = _OUTCOMES.get(highs_status, (4, SolverError))
        if error is None:
            x, row_value, row_dual, fun = solution
            if not _is_feasible(lp, x, row_value, fun):
                status, error = 4, SolverError
                message = ("the reported optimum violates the constraints "
                           f"by more than {_FEASIBILITY_TOL:.2e}")
        span.set(status=status, iterations=int(iterations))
        if error is not None:
            raise error(f"model {model.name!r}: {message} (HiGHS status "
                        f"{int(highs_status)}; time_limit={time_limit}, "
                        f"maxiter={maxiter})")

    # HiGHS minimises; flip back for a max model.
    sign = -1.0 if model.sense == "max" else 1.0
    objective = sign * float(fun) + lp.constant

    # Row duals are d(min objective)/d(rhs) of the stacked rows.  Convert
    # to the user's orientation: for max models d(max objective)/d(rhs) =
    # -dual; a flipped (>=) row additionally changes the rhs sign.
    duals = np.empty(model.num_constraints)
    duals[lp.order] = row_dual
    duals *= sign * lp.flip
    return Solution(model, x, objective, duals)


def _assemble_native(model: Model):
    """Assemble in creation order for a native (row-bounded) backend.

    Unlike :func:`_assemble`, rows are *not* split into eq/ub matrices or
    sign-flipped: each constraint becomes one ``row_lower <= a x <=
    row_upper`` row, so row ``i`` of the backend model is constraint
    ``i`` of the :class:`Model` and duals map back positionally.
    """
    n = model.num_variables
    m = model.num_constraints
    c, obj_constant = _objective_vector(model, n)
    codes, rhs, entry_con, entry_col, entry_val = _collect_entries(model)
    row_lower = np.where(codes == SENSE_CODES[LE], -np.inf, rhs)
    row_upper = np.where(codes == SENSE_CODES[GE], np.inf, rhs)
    matrix = _csc(entry_con, entry_col, entry_val, (m, n))
    return c, obj_constant, matrix, row_lower, row_upper, \
        model.lb.copy(), model.ub.copy()


class SolverSession:
    """A persistent LP backend that may carry state between solves.

    The contract is exactly :func:`solve_model`'s — same
    :class:`Solution`, same error taxonomy — plus a lifetime: callers
    keep one session per module (SAM, PC) for the duration of a run and
    :meth:`close` it at the end.  A session is free to reuse whatever it
    can from the previous :meth:`solve` (the HiGHS session warm-starts
    from the last primal/dual point); a correct session is
    *indistinguishable* from a cold solve except in wall-clock, which is
    what the warm-vs-cold differential suite asserts.

    Telemetry: every solve increments ``lp.session.warm_starts`` or
    ``lp.session.cold_starts`` depending on whether previous-solve state
    was actually injected.
    """

    backend = "base"

    def solve(self, model: Model, time_limit: float | None = None,
              maxiter: int | None = None) -> Solution:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources.  Idempotent; default is a no-op."""

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ScipySession(SolverSession):
    """The always-available fallback backend: stateless scipy solves.

    Every call delegates to :func:`solve_model`, which builds a fresh
    HiGHS instance per solve, so each solve is cold by construction.
    This is the reference backend: results are bit-identical to the
    historical non-session path.
    """

    backend = "scipy"

    def solve(self, model: Model, time_limit: float | None = None,
              maxiter: int | None = None) -> Solution:
        get_registry().counter("lp.session.cold_starts").inc()
        return solve_model(model, time_limit=time_limit, maxiter=maxiter)


class HighsSession(SolverSession):
    """A ``highspy``-backed session keeping one ``Highs`` instance alive.

    Each :meth:`solve` passes the freshly assembled LP to the live
    instance and, when the variable/constraint counts match the previous
    solve (the SAM LP between quiet steps, the PC LP across windows),
    seeds the solver with the previous primal/dual point so the simplex
    crossover starts near the old optimum.  Mismatched shapes fall back
    to a cold start — never an error.

    Requires ``highspy``; construct through :func:`session_for`, which
    degrades to :class:`ScipySession` when the bindings are missing.
    """

    backend = "highs"

    def __init__(self) -> None:
        import highspy
        self._hp = highspy
        self._highs = highspy.Highs()
        self._highs.setOptionValue("output_flag", False)
        self._prev_shape: tuple[int, int] | None = None
        self._prev_solution = None

    def close(self) -> None:
        self._highs = None
        self._prev_solution = None

    def _build_lp(self, model: Model):
        hp = self._hp
        c, obj_constant, matrix, row_lower, row_upper, col_lower, \
            col_upper = _assemble_native(model)
        if model.sense == "max":
            c = -c
        lp = hp.HighsLp()
        lp.num_col_ = model.num_variables
        lp.num_row_ = model.num_constraints
        lp.col_cost_ = c
        lp.col_lower_ = col_lower
        lp.col_upper_ = col_upper
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.a_matrix_.format_ = hp.MatrixFormat.kColwise
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        return lp, obj_constant

    def solve(self, model: Model, time_limit: float | None = None,
              maxiter: int | None = None) -> Solution:
        if self._highs is None:
            raise SolverError("session is closed")
        hp, highs = self._hp, self._highs
        registry = get_registry()
        with get_tracer().span("lp.solve", model=model.name,
                               sense=model.sense, backend="highs") as span:
            with get_tracer().span("lp.assemble", model=model.name):
                lp, obj_constant = self._build_lp(model)
            span.set(n_vars=model.num_variables,
                     n_constraints=model.num_constraints)
            highs.passModel(lp)
            highs.setOptionValue(
                "time_limit", float(time_limit) if time_limit is not None
                else np.inf)
            if maxiter is not None:
                highs.setOptionValue("simplex_iteration_limit", int(maxiter))
            shape = (model.num_variables, model.num_constraints)
            warm = self._prev_solution is not None \
                and self._prev_shape == shape
            if warm:
                try:
                    highs.setSolution(self._prev_solution)
                except Exception:  # noqa: BLE001 — warm start is advisory
                    warm = False
            registry.counter("lp.session.warm_starts" if warm
                             else "lp.session.cold_starts").inc()
            highs.run()
            status = highs.getModelStatus()
            span.set(status=str(status), warm=warm)
            if status == hp.HighsModelStatus.kInfeasible:
                self._prev_solution = None
                raise InfeasibleError(f"model {model.name!r} is infeasible")
            if status in (hp.HighsModelStatus.kUnbounded,
                          hp.HighsModelStatus.kUnboundedOrInfeasible):
                self._prev_solution = None
                raise UnboundedError(f"model {model.name!r} is unbounded")
            if status in (hp.HighsModelStatus.kTimeLimit,
                          hp.HighsModelStatus.kIterationLimit):
                self._prev_solution = None
                raise SolverTimeout(
                    f"model {model.name!r}: budget exhausted before "
                    f"convergence (time_limit={time_limit}, "
                    f"maxiter={maxiter})")
            if status != hp.HighsModelStatus.kOptimal:
                self._prev_solution = None
                raise SolverError(f"model {model.name!r}: solver failed "
                                  f"(status {status})")
            solution = highs.getSolution()
            self._prev_solution = solution
            self._prev_shape = shape
        sign = -1.0 if model.sense == "max" else 1.0
        objective = sign * float(highs.getInfo().objective_function_value) \
            + obj_constant
        x = np.asarray(solution.col_value, dtype=np.float64)
        # Row i of the native model is constraint i; row duals are
        # d(min)/d(rhs), re-oriented for max models exactly as in
        # solve_model.
        duals = sign * np.asarray(solution.row_dual, dtype=np.float64)
        return Solution(model, x, objective, duals)


def session_for(backend: str | None) -> SolverSession:
    """Build the :class:`SolverSession` for a ``solver_backend`` knob.

    ``"scipy"`` (or ``None``) is the stateless reference backend;
    ``"highs"`` asks for the persistent ``highspy`` session, degrading
    to scipy — with a ``lp.session.backend_fallbacks`` counter, never an
    ImportError — when the bindings are absent; ``"auto"`` picks highs
    when available, scipy otherwise.
    """
    if backend in (None, "scipy"):
        return ScipySession()
    if backend not in SOLVER_BACKENDS:
        raise ValueError(f"unknown solver_backend {backend!r}")
    if HIGHSPY_AVAILABLE:
        try:
            return HighsSession()
        except Exception:  # noqa: BLE001 — broken install == absent install
            pass
    if backend == "highs":
        get_registry().counter("lp.session.backend_fallbacks").inc()
    return ScipySession()
