"""A small linear-programming modelling layer.

The paper's modules (request admission, schedule adjustment, price
computation and the offline baselines) are all linear programs.  The
original system used Gurobi; this reproduction is offline-only, so we build
the modelling vocabulary we need — variables, linear expressions,
constraints, duals — on top of HiGHS (handed the arrays directly; see
:mod:`repro.lp.solver`).

The API is deliberately close to common algebraic modelling layers::

    m = Model(sense="max")
    x = m.add_variable("x", lb=0.0, ub=10.0)
    y = m.add_variable("y", lb=0.0)
    cap = m.add_constraint(x + 2.0 * y <= 8.0, name="capacity")
    m.set_objective(3.0 * x + 5.0 * y)
    sol = m.solve()
    sol.value(x), sol.objective, sol.dual(cap)

Dual values follow the *user's* orientation: for a maximisation problem the
dual of a binding ``<=`` constraint is the nonnegative shadow price
(the marginal objective gain per unit of extra right-hand side).  That is
the quantity Pretium's price computer publishes as a link price.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Optional, Union

import numpy as np

from .errors import ModelError

Number = Union[int, float]

#: Senses accepted by :class:`Constraint`.
LE, GE, EQ = "<=", ">=", "=="

#: Compact sense codes used by the batched (COO) construction path.
SENSE_CODES = {LE: 0, GE: 1, EQ: 2}


class Variable:
    """A decision variable.

    Variables are created through :meth:`Model.add_variable` and are tied to
    their model.  Arithmetic on variables produces :class:`LinExpr` objects;
    comparisons (``<=``, ``>=``, ``==``) with expressions or numbers produce
    :class:`Constraint` objects ready to be added to the model.
    """

    __slots__ = ("index", "name", "lb", "ub", "_model_id")

    def __init__(self, index: int, name: str, lb: Optional[float],
                 ub: Optional[float], model_id: int) -> None:
        self.index = index
        self.name = name
        self.lb = lb
        self.ub = ub
        self._model_id = model_id

    # -- arithmetic ---------------------------------------------------
    def to_expr(self) -> "LinExpr":
        """Lift this variable into a single-term linear expression."""
        return LinExpr({self.index: 1.0}, 0.0, self._model_id)

    def __add__(self, other): return self.to_expr() + other
    def __radd__(self, other): return self.to_expr() + other
    def __sub__(self, other): return self.to_expr() - other
    def __rsub__(self, other): return (-self.to_expr()) + other
    def __mul__(self, other): return self.to_expr() * other
    def __rmul__(self, other): return self.to_expr() * other
    def __truediv__(self, other): return self.to_expr() / other
    def __neg__(self): return self.to_expr() * -1.0

    # -- constraint sugar ---------------------------------------------
    def __le__(self, other): return self.to_expr() <= other
    def __ge__(self, other): return self.to_expr() >= other
    def __eq__(self, other): return self.to_expr() == other  # type: ignore[override]

    def __hash__(self) -> int:
        return hash((self._model_id, self.index))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


class LinExpr:
    """An affine expression ``sum(coeff_i * var_i) + constant``.

    Internally a mapping from variable index to coefficient.  Expressions
    support ``+``, ``-``, scalar ``*`` and ``/``, and comparisons that build
    :class:`Constraint` objects.
    """

    __slots__ = ("coeffs", "constant", "_model_id")

    def __init__(self, coeffs: Optional[dict[int, float]] = None,
                 constant: float = 0.0, model_id: Optional[int] = None) -> None:
        self.coeffs: dict[int, float] = coeffs if coeffs is not None else {}
        self.constant = float(constant)
        self._model_id = model_id

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.constant, self._model_id)

    def _merge_model(self, other_id: Optional[int]) -> Optional[int]:
        if self._model_id is None:
            return other_id
        if other_id is None or other_id == self._model_id:
            return self._model_id
        raise ModelError("cannot combine expressions from different models")

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other) -> "LinExpr":
        result = self.copy()
        result += other
        return result

    def __iadd__(self, other) -> "LinExpr":
        if isinstance(other, Variable):
            other = other.to_expr()
        if isinstance(other, LinExpr):
            self._model_id = self._merge_model(other._model_id)
            for idx, coeff in other.coeffs.items():
                self.coeffs[idx] = self.coeffs.get(idx, 0.0) + coeff
            self.constant += other.constant
            return self
        if isinstance(other, (int, float)):
            self.constant += float(other)
            return self
        return NotImplemented

    def __radd__(self, other) -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other) -> "LinExpr":
        if isinstance(other, Variable):
            other = other.to_expr()
        if isinstance(other, LinExpr):
            return self + (other * -1.0)
        if isinstance(other, (int, float)):
            return self + (-float(other))
        return NotImplemented

    def __rsub__(self, other) -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, other) -> "LinExpr":
        if not isinstance(other, (int, float)):
            return NotImplemented
        scale = float(other)
        return LinExpr({i: c * scale for i, c in self.coeffs.items()},
                       self.constant * scale, self._model_id)

    def __rmul__(self, other) -> "LinExpr":
        return self.__mul__(other)

    def __truediv__(self, other) -> "LinExpr":
        if not isinstance(other, (int, float)):
            return NotImplemented
        return self * (1.0 / float(other))

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- constraint sugar ---------------------------------------------
    def __le__(self, other) -> "Constraint":
        return Constraint.build(self, LE, other)

    def __ge__(self, other) -> "Constraint":
        return Constraint.build(self, GE, other)

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint.build(self, EQ, other)

    def __hash__(self):  # pragma: no cover - expressions are not hashable
        raise TypeError("LinExpr is unhashable")

    def __repr__(self) -> str:
        terms = " + ".join(f"{c:g}*v{i}" for i, c in sorted(self.coeffs.items()))
        return f"LinExpr({terms or '0'} + {self.constant:g})"


def quicksum(terms: Iterable) -> LinExpr:
    """Sum variables/expressions/numbers into one :class:`LinExpr`.

    Much faster than ``sum(...)`` for large models because it accumulates
    into a single coefficient dictionary instead of building intermediate
    expressions.
    """
    result = LinExpr()
    coeffs = result.coeffs
    for term in terms:
        if isinstance(term, Variable):
            result._model_id = result._merge_model(term._model_id)
            coeffs[term.index] = coeffs.get(term.index, 0.0) + 1.0
        elif isinstance(term, LinExpr):
            result._model_id = result._merge_model(term._model_id)
            for idx, coeff in term.coeffs.items():
                coeffs[idx] = coeffs.get(idx, 0.0) + coeff
            result.constant += term.constant
        elif isinstance(term, (int, float)):
            result.constant += float(term)
        else:
            raise ModelError(f"cannot sum term of type {type(term).__name__}")
    return result


def weighted_sum(pairs: Iterable[tuple[float, Variable]]) -> LinExpr:
    """Build ``sum(coeff * var)`` from ``(coeff, var)`` pairs efficiently."""
    result = LinExpr()
    coeffs = result.coeffs
    for coeff, var in pairs:
        result._model_id = result._merge_model(var._model_id)
        coeffs[var.index] = coeffs.get(var.index, 0.0) + float(coeff)
    return result


class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` in normalised form.

    The right-hand side is folded into the expression's constant, so the
    stored form is ``coeffs . x  sense  rhs`` with ``rhs = -constant``.
    Constraints are identified by the index assigned when added to a model;
    that index is how dual values are looked up.
    """

    __slots__ = ("expr", "sense", "name", "index")

    def __init__(self, expr: LinExpr, sense: str, name: str = "") -> None:
        if sense not in (LE, GE, EQ):
            raise ModelError(f"unknown constraint sense {sense!r}")
        self.expr = expr
        self.sense = sense
        self.name = name
        self.index: Optional[int] = None

    @staticmethod
    def build(lhs: LinExpr, sense: str, rhs) -> "Constraint":
        if isinstance(rhs, Variable):
            rhs = rhs.to_expr()
        if isinstance(rhs, LinExpr):
            expr = lhs - rhs
        elif isinstance(rhs, (int, float)):
            expr = lhs - float(rhs)
        else:
            raise ModelError(f"cannot compare expression with {type(rhs).__name__}")
        return Constraint(expr, sense)

    @property
    def rhs(self) -> float:
        """Right-hand side after moving the constant term across."""
        return -self.expr.constant

    def __repr__(self) -> str:
        label = self.name or f"c{self.index}"
        return f"Constraint({label}: {self.expr!r} {self.sense} 0)"


class VariableBlock:
    """A contiguous run of variables created by :meth:`Model.add_variables_array`.

    The block stores only the index range; no per-variable Python objects
    are created.  ``block[i]`` materialises a :class:`Variable` on demand
    for interop with the expression API.
    """

    __slots__ = ("start", "count", "prefix", "_model")

    def __init__(self, start: int, count: int, prefix: str,
                 model: "Model") -> None:
        self.start = start
        self.count = count
        self.prefix = prefix
        self._model = model

    @property
    def stop(self) -> int:
        return self.start + self.count

    @property
    def indices(self) -> np.ndarray:
        """Dense variable indices covered by the block."""
        return np.arange(self.start, self.stop)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> Variable:
        if not 0 <= i < self.count:
            raise IndexError(f"block index {i} out of range 0..{self.count - 1}")
        index = self.start + i
        lb, ub = self._model.bounds(index, index + 1)[0]
        return Variable(index, f"{self.prefix}[{i}]", lb, ub,
                        self._model._model_id)

    def __iter__(self):
        return (self[i] for i in range(self.count))

    def __repr__(self) -> str:
        return f"VariableBlock({self.prefix!r}, [{self.start}:{self.stop}))"


class ConstraintBlock:
    """A batch of constraints added as COO triplets in one call.

    Rows are identified by their *global* constraint indices
    ``start .. start + count - 1`` (interleaved with expression
    constraints in creation order); duals are read back with
    :meth:`repro.lp.solver.Solution.dual_array`.
    """

    __slots__ = ("start", "count", "name", "rows", "cols", "vals", "codes",
                 "rhs")

    def __init__(self, start: int, count: int, name: str, rows: np.ndarray,
                 cols: np.ndarray, vals: np.ndarray, codes: np.ndarray,
                 rhs: np.ndarray) -> None:
        self.start = start
        self.count = count
        self.name = name
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.codes = codes
        self.rhs = rhs

    @property
    def stop(self) -> int:
        return self.start + self.count

    @property
    def indices(self) -> np.ndarray:
        """Global constraint indices covered by the block."""
        return np.arange(self.start, self.stop)

    def index_of(self, row: int) -> int:
        """Global constraint index of the block-local ``row``."""
        if not 0 <= row < self.count:
            raise IndexError(f"row {row} out of range 0..{self.count - 1}")
        return self.start + row

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"ConstraintBlock({self.name!r}, [{self.start}:{self.stop}), "
                f"{len(self.vals)} entries)")


def _bound_array(value, count: int, unbounded: float) -> np.ndarray:
    """Normalise a scalar-or-array bound spec to ``count`` floats, with
    ``None`` (no bound on that side) stored as the ``unbounded`` infinity."""
    if value is None:
        return np.full(count, unbounded)
    if isinstance(value, (int, float)):
        return np.full(count, float(value))
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (count,):
        raise ModelError(f"bound array has shape {arr.shape}, "
                         f"expected ({count},)")
    return arr


class Model:
    """A linear program under construction.

    Two construction paths share one constraint/variable index space:

    - the *expression* API (:meth:`add_variable`, :meth:`add_constraint`,
      operator overloading) — convenient for tests and small models;
    - the *batched* API (:meth:`add_variables_array`,
      :meth:`add_constraints_coo`, :meth:`set_objective_coo`) — numpy
      triplets that the solver concatenates without touching per-term
      Python objects, used by the hot LP builders (SAM/PC/offline).

    Parameters
    ----------
    sense:
        ``"max"`` or ``"min"``; orientation of :meth:`set_objective`.
    name:
        Optional label used in error messages.
    """

    _next_model_id = 0

    def __init__(self, sense: str = "max", name: str = "lp") -> None:
        if sense not in ("max", "min"):
            raise ModelError(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: Optional[LinExpr] = None
        self._objective_coo: Optional[tuple[np.ndarray, np.ndarray,
                                            float]] = None
        self._num_vars = 0
        self._num_cons = 0
        #: Bounds as float arrays (``±inf`` = unbounded) with spare
        #: capacity; the first ``_num_vars`` entries are live.
        self._lb = np.empty(64)
        self._ub = np.empty(64)
        #: Constraint | ConstraintBlock, in global creation order.
        self._records: list = []
        Model._next_model_id += 1
        self._model_id = Model._next_model_id

    # -- introspection -------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Total variables, across both construction paths."""
        return self._num_vars

    @property
    def num_constraints(self) -> int:
        """Total constraints (expression + COO rows)."""
        return self._num_cons

    @property
    def lb(self) -> np.ndarray:
        """Lower bounds as a float array (``-inf`` = unbounded); a view."""
        return self._lb[:self._num_vars]

    @property
    def ub(self) -> np.ndarray:
        """Upper bounds as a float array (``+inf`` = unbounded); a view."""
        return self._ub[:self._num_vars]

    def bounds(self, start: int = 0, stop: int | None = None) -> list[tuple]:
        """``(lb, ub)`` pairs with ``None`` = unbounded, as the expression
        API spells them; derived from the arrays the solver reads."""
        return [(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
                for lo, hi in zip(self.lb[start:stop].tolist(),
                                  self.ub[start:stop].tolist())]

    def _append_bounds(self, lbs, ubs, count: int) -> None:
        """Store ``count`` new variables' bounds, doubling capacity."""
        end = self._num_vars + count
        if end > self._lb.size:
            capacity = max(end, 2 * self._lb.size)
            self._lb = np.resize(self._lb, capacity)
            self._ub = np.resize(self._ub, capacity)
        self._lb[self._num_vars:end] = lbs
        self._ub[self._num_vars:end] = ubs
        self._num_vars = end

    # -- building ------------------------------------------------------
    def add_variable(self, name: str = "", lb: Optional[float] = 0.0,
                     ub: Optional[float] = None) -> Variable:
        """Create a variable with bounds ``[lb, ub]`` (``None`` = infinite)."""
        if lb is not None and ub is not None and lb > ub + 1e-12:
            raise ModelError(f"variable {name!r}: lb {lb} > ub {ub}")
        var = Variable(self._num_vars, name or f"x{self._num_vars}",
                       lb, ub, self._model_id)
        self.variables.append(var)
        self._append_bounds(-np.inf if lb is None else lb,
                            np.inf if ub is None else ub, 1)
        return var

    def add_variables(self, count: int, prefix: str = "x",
                      lb: Optional[float] = 0.0,
                      ub: Optional[float] = None) -> list[Variable]:
        """Create ``count`` variables named ``prefix[i]`` with shared bounds."""
        return [self.add_variable(f"{prefix}[{i}]", lb=lb, ub=ub)
                for i in range(count)]

    def add_variables_array(self, count: int, prefix: str = "x",
                            lb=0.0, ub=None) -> VariableBlock:
        """Create ``count`` variables at once, returning an index block.

        ``lb``/``ub`` may be scalars (shared by all variables) or arrays of
        length ``count`` (per-variable bounds; ``None``, ``-inf`` below and
        ``+inf`` above mean unbounded).
        No :class:`Variable` objects are created — use the returned
        :class:`VariableBlock`'s ``indices`` with the COO constraint and
        objective builders, or ``block[i]`` to materialise one lazily.
        """
        if count < 0:
            raise ModelError(f"variable count must be >= 0, got {count}")
        lbs = _bound_array(lb, count, -np.inf)
        ubs = _bound_array(ub, count, np.inf)
        crossed = lbs > ubs + 1e-12
        if crossed.any():
            i = int(np.argmax(crossed))
            raise ModelError(f"variable {prefix}[{i}]: "
                             f"lb {lbs[i]} > ub {ubs[i]}")
        block = VariableBlock(self._num_vars, count, prefix, self)
        self._append_bounds(lbs, ubs, count)
        return block

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built via expression comparison."""
        if not isinstance(constraint, Constraint):
            raise ModelError("add_constraint expects a Constraint "
                             "(build one with <=, >= or ==)")
        model_id = constraint.expr._model_id
        if model_id is not None and model_id != self._model_id:
            raise ModelError("constraint uses variables from another model")
        if name:
            constraint.name = name
        constraint.index = self._num_cons
        self.constraints.append(constraint)
        self._records.append(constraint)
        self._num_cons += 1
        return constraint

    def add_constraints_coo(self, rows, cols, vals, senses, rhs,
                            name: str = "") -> ConstraintBlock:
        """Add a batch of constraints from COO triplets.

        Parameters
        ----------
        rows, cols, vals:
            Parallel arrays: entry ``i`` contributes ``vals[i]`` to the
            coefficient of variable ``cols[i]`` in block-local row
            ``rows[i]``.  Duplicate (row, col) entries are summed.
        senses:
            One sense string (``"<="``, ``">="`` or ``"=="``) shared by
            every row, a sequence with one sense string per row, or a
            ready integer array of :data:`SENSE_CODES` values per row.
        rhs:
            Right-hand side per row (scalar or array).  Its length defines
            the number of rows in the block.
        """
        rhs_arr = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        count = rhs_arr.size
        rows_arr = np.asarray(rows, dtype=np.int64)
        cols_arr = np.asarray(cols, dtype=np.int64)
        vals_arr = np.asarray(vals, dtype=np.float64)
        if not (rows_arr.shape == cols_arr.shape == vals_arr.shape):
            raise ModelError("rows, cols and vals must have matching shapes")
        if rows_arr.size and (rows_arr.min() < 0 or rows_arr.max() >= count):
            raise ModelError(f"row index out of range 0..{count - 1}")
        if cols_arr.size and (cols_arr.min() < 0
                              or cols_arr.max() >= self._num_vars):
            raise ModelError("column index references an unknown variable")
        if isinstance(senses, str):
            if senses not in SENSE_CODES:
                raise ModelError(f"unknown constraint sense {senses!r}")
            codes = np.full(count, SENSE_CODES[senses], dtype=np.int8)
        elif isinstance(senses, np.ndarray) and senses.dtype.kind in "iu":
            if senses.shape != (count,):
                raise ModelError(f"got {senses.size} senses for {count} rows")
            if count and not (0 <= senses.min()
                              and senses.max() < len(SENSE_CODES)):
                raise ModelError("unknown constraint sense code")
            codes = senses.astype(np.int8, copy=False)
        else:
            sense_list = list(senses)
            if len(sense_list) != count:
                raise ModelError(f"got {len(sense_list)} senses for "
                                 f"{count} rows")
            unknown = set(sense_list) - set(SENSE_CODES)
            if unknown:
                raise ModelError(f"unknown constraint sense {unknown.pop()!r}")
            codes = np.array([SENSE_CODES[s] for s in sense_list],
                             dtype=np.int8)
        block = ConstraintBlock(self._num_cons, count, name, rows_arr,
                                cols_arr, vals_arr, codes, rhs_arr)
        self._records.append(block)
        self._num_cons += count
        return block

    def set_objective(self, expr) -> None:
        """Set the objective expression (orientation from the model sense)."""
        if isinstance(expr, Variable):
            expr = expr.to_expr()
        if isinstance(expr, (int, float)):
            expr = LinExpr(constant=float(expr))
        if not isinstance(expr, LinExpr):
            raise ModelError("objective must be a linear expression")
        if expr._model_id is not None and expr._model_id != self._model_id:
            raise ModelError("objective uses variables from another model")
        self.objective = expr
        self._objective_coo = None

    def set_objective_coo(self, cols, vals, constant: float = 0.0) -> None:
        """Set the objective from parallel (variable index, coefficient)
        arrays; duplicate indices are summed."""
        cols_arr = np.asarray(cols, dtype=np.int64)
        vals_arr = np.asarray(vals, dtype=np.float64)
        if cols_arr.shape != vals_arr.shape:
            raise ModelError("cols and vals must have matching shapes")
        if cols_arr.size and (cols_arr.min() < 0
                              or cols_arr.max() >= self._num_vars):
            raise ModelError("objective references an unknown variable")
        self._objective_coo = (cols_arr, vals_arr, float(constant))
        self.objective = None

    # -- solving -------------------------------------------------------
    def solve(self, time_limit: float | None = None,
              maxiter: int | None = None):
        """Solve and return a :class:`repro.lp.solver.Solution`.

        Budgets are forwarded to :func:`repro.lp.solver.solve_model`.
        """
        from .solver import solve_model
        return solve_model(self, time_limit=time_limit, maxiter=maxiter)

    def __repr__(self) -> str:
        return (f"Model({self.name!r}, sense={self.sense}, "
                f"{self._num_vars} vars, {self._num_cons} cons)")
