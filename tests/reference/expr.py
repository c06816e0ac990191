"""The expression modelling layer ``src/`` built LPs with before the array
emitters (:class:`Variable`, :class:`LinExpr`, :class:`Constraint`,
:func:`quicksum`, the term-by-term top-k encodings), moved here verbatim:
the oracle the emitters are held to, and the shorthand of small test LPs.

:class:`ExprModel` lowers each expression call onto the array API, so one
solver path assembles both: ``add_variable`` is a one-variable
``add_variables_array``; ``add_constraint`` a row of ``add_constraints_coo``
with ``rhs = -expr.constant`` (which keeps the sign of a zero), consecutive
rows buffered into one block until the row count is read or another block
is added (a block per row made the oracle builders much slower; the
assembled bytes are the same); ``set_objective`` is ``set_objective_coo``.
Its ``solve`` returns an :class:`ExprSolution`, read by expression objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Optional

from repro.lp import EQ, GE, LE, Model, ModelError, Solution
from repro.lp.topk import TOPK_ENCODINGS


class Variable:
    """A decision variable.

    Variables are created through :meth:`ExprModel.add_variable` and are tied to
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


def _check_distinct(variables: Sequence[Variable]) -> None:
    """Reject duplicate inputs, comparing by *index*: ``Variable.__eq__``
    builds a (truthy) :class:`Constraint`, so ``var in variables`` would
    match any variable."""
    if len({v.index for v in variables}) != len(variables):
        raise ModelError("top-k inputs must be distinct variables")


def add_sum_topk(model: Model, variables: Sequence[Variable], k: int,
                 name: str = "topk", encoding: str = "cvar") -> Variable:
    """Add an upper bound on the sum of the top-``k`` of ``variables``.

    Returns a variable ``S`` such that at any feasible point
    ``S >= sum of the k largest variable values``, with equality at the
    optimum whenever ``S`` carries a positive cost in a minimisation (or is
    subtracted in a maximisation).
    """
    if encoding == "cvar":
        return add_sum_topk_cvar(model, variables, k, name)
    if encoding == "sorting":
        return add_sum_topk_sorting(model, variables, k, name)
    raise ValueError(f"unknown top-k encoding {encoding!r}; "
                     f"expected one of {TOPK_ENCODINGS}")


def add_sum_topk_cvar(model: Model, variables: Sequence[Variable], k: int,
                      name: str = "topk") -> Variable:
    """CVaR encoding: ``S >= k*eta + sum_t u_t``, ``u_t >= x_t - eta``.

    ``eta`` plays the role of the k-th largest value.  Uses ``T + 2``
    auxiliary variables and ``T + 1`` constraints.
    """
    T = len(variables)
    if not 0 < k <= T:
        raise ValueError(f"k must be in 1..{T}, got {k}")
    _check_distinct(variables)
    # Utilisations are nonnegative, so eta's optimum (the k-th largest value)
    # is nonnegative and lb=0 is harmless.
    eta = model.add_variable(f"{name}.eta", lb=0.0)
    excesses = [model.add_variable(f"{name}.u[{t}]", lb=0.0) for t in range(T)]
    for var, excess in zip(variables, excesses):
        model.add_constraint(excess >= var - eta, name=f"{name}.exc")
    total = model.add_variable(f"{name}.S", lb=0.0)
    model.add_constraint(total >= float(k) * eta + quicksum(excesses),
                         name=f"{name}.bound")
    return total


def add_sum_topk_sorting(model: Model, variables: Sequence[Variable], k: int,
                         name: str = "topk") -> Variable:
    """The paper's Theorem 4.2 bubble-pass comparator network.

    Pass ``i`` (``i = 1..k``) sweeps ``T - i + 1`` values through linear
    comparators.  A comparator on inputs ``(a, b)`` introduces outputs
    ``(m, M)`` with::

        a + b == m + M,    m <= a,    m <= b

    which forces ``M >= max(a, b)`` and ``m <= min(a, b)``.  The running
    maximum is threaded through the pass (exactly as bubble sort bubbles the
    largest element to the end); the pass's final maximum ``F_i`` is one of
    the k largest.  The returned variable satisfies
    ``S >= F_1 + ... + F_k >= sum of top-k``.
    """
    T = len(variables)
    if not 0 < k <= T:
        raise ValueError(f"k must be in 1..{T}, got {k}")
    _check_distinct(variables)
    if k == T:
        total = model.add_variable(f"{name}.S", lb=0.0)
        model.add_constraint(total >= quicksum(variables), name=f"{name}.bound")
        return total

    current: list = list(variables)
    pass_maxima = []
    for i in range(k):
        next_values = []
        running_max = current[0]
        for j in range(1, len(current)):
            incoming = current[j]
            low = model.add_variable(f"{name}.m[{i}][{j}]", lb=0.0)
            high = model.add_variable(f"{name}.M[{i}][{j}]", lb=0.0)
            model.add_constraint(running_max + incoming == low + high,
                                 name=f"{name}.sum")
            model.add_constraint(low <= running_max, name=f"{name}.le1")
            model.add_constraint(low <= incoming, name=f"{name}.le2")
            next_values.append(low)
            running_max = high
        pass_maxima.append(running_max)
        current = next_values
    total = model.add_variable(f"{name}.S", lb=0.0)
    model.add_constraint(total >= quicksum(pass_maxima), name=f"{name}.bound")
    return total


class ExprSolution(Solution):
    """A :class:`~repro.lp.Solution` read by expression objects."""

    def value(self, var: Variable) -> float:
        """Primal value of ``var``."""
        return float(self.x[var.index])

    def values(self, variables) -> list[float]:
        """Primal values for an iterable of variables (in order)."""
        return [float(self.x[v.index]) for v in variables]

    def value_of(self, expr) -> float:
        """Evaluate a variable or linear expression at the optimum."""
        if isinstance(expr, Variable):
            return self.value(expr)
        total = expr.constant
        for idx, coeff in expr.coeffs.items():
            total += coeff * self.x[idx]
        return float(total)

    def dual(self, constraint: Constraint) -> float:
        """Shadow price of a constraint in the model's orientation."""
        if constraint.index is None:
            raise ModelError("constraint was never added to the model")
        return float(self.duals[constraint.index])


class ExprModel(Model):
    """A :class:`~repro.lp.Model` built term by term."""

    _next_model_id = 0

    def __init__(self, sense: str = "max", name: str = "lp") -> None:
        super().__init__(sense, name)
        self.objective: Optional[LinExpr] = None
        #: Expression rows not yet lowered onto a block.
        self._pending: list[Constraint] = []
        ExprModel._next_model_id += 1
        self._model_id = ExprModel._next_model_id

    def add_variable(self, name: str = "", lb: Optional[float] = 0.0,
                     ub: Optional[float] = None) -> Variable:
        """Create a variable with bounds ``[lb, ub]`` (``None`` = infinite)."""
        index = self.add_variables_array(1, name, lb=lb, ub=ub).start
        return Variable(index, name or f"x{index}", lb, ub, self._model_id)

    def add_variables(self, count: int, prefix: str = "x",
                      lb: Optional[float] = 0.0,
                      ub: Optional[float] = None) -> list[Variable]:
        """Create ``count`` variables named ``prefix[i]`` with shared bounds."""
        return [self.add_variable(f"{prefix}[{i}]", lb=lb, ub=ub)
                for i in range(count)]

    def add_constraint(self, constraint: Constraint,
                       name: str = "") -> Constraint:
        """Register a constraint built via expression comparison."""
        if not isinstance(constraint, Constraint):
            raise ModelError("add_constraint expects a Constraint "
                             "(build one with <=, >= or ==)")
        model_id = constraint.expr._model_id
        if model_id is not None and model_id != self._model_id:
            raise ModelError("constraint uses variables from another model")
        if name:
            constraint.name = name
        constraint.index = self._num_cons + len(self._pending)
        self._pending.append(constraint)
        return constraint

    def _flush(self) -> None:
        """Lower the buffered expression rows onto one COO block."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        rows, cols, vals = [], [], []
        for row, constraint in enumerate(pending):
            coeffs = constraint.expr.coeffs
            rows += [row] * len(coeffs)
            cols += coeffs.keys()
            vals += coeffs.values()
        self.add_constraints_coo(rows, cols, vals,
                                 [c.sense for c in pending],
                                 [c.rhs for c in pending])

    @property
    def num_constraints(self) -> int:
        self._flush()
        return super().num_constraints

    def add_constraints_coo(self, *args, **kwargs):
        self._flush()
        return super().add_constraints_coo(*args, **kwargs)

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
        self.set_objective_coo(list(expr.coeffs), list(expr.coeffs.values()),
                               expr.constant)

    def solve(self, time_limit: float | None = None,
              maxiter: int | None = None) -> ExprSolution:
        solution = super().solve(time_limit=time_limit, maxiter=maxiter)
        return ExprSolution(self, solution.x, solution.objective,
                            solution.duals)
