"""Scale and robustness tests for the LP layer."""

import numpy as np
import pytest

from repro.lp import EQ, Model, add_sum_topk_coo, sum_topk_exact
from tests.reference.expr import ExprModel, quicksum


def test_moderately_large_sparse_model():
    """A few thousand variables/constraints assemble and solve quickly."""
    rng = np.random.default_rng(0)
    n_vars, n_cons = 2000, 400
    m = ExprModel(sense="max")
    xs = m.add_variables(n_vars, lb=0.0, ub=1.0)
    weights = rng.uniform(0.1, 1.0, n_vars)
    for c in range(n_cons):
        members = rng.choice(n_vars, size=10, replace=False)
        m.add_constraint(quicksum(xs[int(i)] for i in members) <= 3.0)
    m.set_objective(quicksum(float(w) * x for w, x in zip(weights, xs)))
    sol = m.solve()
    assert sol.objective > 0
    values = np.array([sol.value(x) for x in xs])
    assert np.all(values >= -1e-9) and np.all(values <= 1 + 1e-9)


def test_topk_large_instance_cvar():
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 10, size=200)
    m = Model(sense="min")
    x = m.add_variables_array(200, "x")
    m.add_constraints_coo(np.arange(200), x.indices, np.ones(200), EQ, values)
    bound = add_sum_topk_coo(m, x.indices, 20, encoding="cvar")
    m.set_objective_coo([bound], [1.0])
    assert m.solve().objective == pytest.approx(
        sum_topk_exact(values, 20), rel=1e-9)


def test_resolve_after_adding_constraints():
    """Models support incremental solves (used by the big-M baselines)."""
    m = ExprModel(sense="max")
    x = m.add_variable("x", ub=10.0)
    m.set_objective(x.to_expr())
    assert m.solve().objective == pytest.approx(10.0)
    m.add_constraint(x <= 4.0)
    assert m.solve().objective == pytest.approx(4.0)
    m.set_objective(-1.0 * x)
    assert m.solve().objective == pytest.approx(0.0)
