"""A small linear-programming modelling layer.

The paper's modules (request admission, schedule adjustment, price
computation and the offline baselines) are all linear programs.  The
original system used Gurobi; this reproduction is offline-only, so we build
the modelling vocabulary we need on top of HiGHS (handed the arrays
directly; see :mod:`repro.lp.solver`).

A model is built from numpy arrays: variables in index blocks, constraints
and the objective as COO triplets over those indices::

    m = Model(sense="max")
    x = m.add_variables_array(2, "x", lb=0.0, ub=[10.0, np.inf])
    cap = m.add_constraints_coo([0, 0], x.indices, [1.0, 2.0], "<=", [8.0])
    m.set_objective_coo(x.indices, [3.0, 5.0])
    sol = m.solve()
    sol.value_array(x), sol.objective, sol.dual_array(cap)

Dual values follow the *user's* orientation: for a maximisation problem the
dual of a binding ``<=`` constraint is the nonnegative shadow price
(the marginal objective gain per unit of extra right-hand side).  That is
the quantity Pretium's price computer publishes as a link price.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ModelError

#: Constraint senses.
LE, GE, EQ = "<=", ">=", "=="

#: Compact sense codes, one per constraint row.
SENSE_CODES = {LE: 0, GE: 1, EQ: 2}


class VariableBlock:
    """A contiguous run of variables created by :meth:`Model.add_variables_array`.

    The block stores only the index range; no per-variable Python objects
    are created.
    """

    __slots__ = ("start", "count", "prefix")

    def __init__(self, start: int, count: int, prefix: str) -> None:
        self.start = start
        self.count = count
        self.prefix = prefix

    @property
    def stop(self) -> int:
        return self.start + self.count

    @property
    def indices(self) -> np.ndarray:
        """Dense variable indices covered by the block."""
        return np.arange(self.start, self.stop)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"VariableBlock({self.prefix!r}, [{self.start}:{self.stop}))"


class ConstraintBlock:
    """A batch of constraints added as COO triplets in one call.

    Rows are identified by their *global* constraint indices
    ``start .. start + count - 1`` (blocks number their rows in creation
    order); duals are read back with
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

    Built through three array calls — :meth:`add_variables_array`,
    :meth:`add_constraints_coo` and :meth:`set_objective_coo` — whose
    numpy triplets the solver concatenates without touching per-term
    Python objects.

    Parameters
    ----------
    sense:
        ``"max"`` or ``"min"``; orientation of :meth:`set_objective_coo`.
    name:
        Optional label used in error messages.
    """

    def __init__(self, sense: str = "max", name: str = "lp") -> None:
        if sense not in ("max", "min"):
            raise ModelError(f"sense must be 'max' or 'min', got {sense!r}")
        self.sense = sense
        self.name = name
        self._objective: Optional[tuple[np.ndarray, np.ndarray,
                                        float]] = None
        self._num_vars = 0
        self._num_cons = 0
        #: Bounds as float arrays (``±inf`` = unbounded) with spare
        #: capacity; the first ``_num_vars`` entries are live.
        self._lb = np.empty(64)
        self._ub = np.empty(64)
        #: Constraint blocks, in creation order.
        self._blocks: list[ConstraintBlock] = []

    # -- introspection -------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Total variables, across every block."""
        return self._num_vars

    @property
    def num_constraints(self) -> int:
        """Total constraint rows, across every block."""
        return self._num_cons

    @property
    def lb(self) -> np.ndarray:
        """Lower bounds as a float array (``-inf`` = unbounded); a view."""
        return self._lb[:self._num_vars]

    @property
    def ub(self) -> np.ndarray:
        """Upper bounds as a float array (``+inf`` = unbounded); a view."""
        return self._ub[:self._num_vars]

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
    def add_variables_array(self, count: int, prefix: str = "x",
                            lb=0.0, ub=None) -> VariableBlock:
        """Create ``count`` variables at once, returning an index block.

        ``lb``/``ub`` may be scalars (shared by all variables) or arrays of
        length ``count`` (per-variable bounds; ``None``, ``-inf`` below and
        ``+inf`` above mean unbounded).  Use the returned
        :class:`VariableBlock`'s ``indices`` with the COO constraint and
        objective builders.
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
        block = VariableBlock(self._num_vars, count, prefix)
        self._append_bounds(lbs, ubs, count)
        return block

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
        self._blocks.append(block)
        self._num_cons += count
        return block

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
        self._objective = (cols_arr, vals_arr, float(constant))

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
