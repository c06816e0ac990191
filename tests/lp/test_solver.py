"""Tests for the HiGHS backend: optima, duals, statuses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import InfeasibleError, ModelError, UnboundedError
from tests.reference.expr import ExprModel, quicksum


def test_simple_max():
    m = ExprModel(sense="max")
    x = m.add_variable("x", ub=4.0)
    y = m.add_variable("y", ub=3.0)
    m.add_constraint(x + y <= 5.0)
    m.set_objective(2.0 * x + y)
    sol = m.solve()
    assert sol.objective == pytest.approx(9.0)
    assert sol.value(x) == pytest.approx(4.0)
    assert sol.value(y) == pytest.approx(1.0)


def test_simple_min():
    m = ExprModel(sense="min")
    x = m.add_variable("x", lb=0.0)
    y = m.add_variable("y", lb=0.0)
    m.add_constraint(x + y >= 4.0)
    m.set_objective(3.0 * x + y)
    sol = m.solve()
    assert sol.objective == pytest.approx(4.0)
    assert sol.value(y) == pytest.approx(4.0)


def test_objective_constant_included():
    m = ExprModel(sense="max")
    x = m.add_variable("x", ub=1.0)
    m.set_objective(x + 10.0)
    assert m.solve().objective == pytest.approx(11.0)


def test_equality_constraints():
    m = ExprModel(sense="min")
    x = m.add_variable("x")
    y = m.add_variable("y")
    m.add_constraint(x + y == 10.0)
    m.set_objective(x + 2 * y)
    sol = m.solve()
    assert sol.value(x) == pytest.approx(10.0)
    assert sol.value(y) == pytest.approx(0.0)


def test_infeasible_raises():
    m = ExprModel(sense="max")
    x = m.add_variable("x", lb=0.0, ub=1.0)
    m.add_constraint(x >= 2.0)
    m.set_objective(x.to_expr())
    with pytest.raises(InfeasibleError):
        m.solve()


def test_unbounded_raises():
    m = ExprModel(sense="max")
    x = m.add_variable("x", lb=0.0)
    m.set_objective(x.to_expr())
    with pytest.raises(UnboundedError):
        m.solve()


def test_missing_objective_raises():
    m = ExprModel()
    m.add_variable("x")
    with pytest.raises(ModelError):
        m.solve()


def test_dual_of_capacity_constraint_max():
    # max 2x st x <= 3: shadow price of the capacity is 2.
    m = ExprModel(sense="max")
    x = m.add_variable("x")
    cap = m.add_constraint(x <= 3.0)
    m.set_objective(2.0 * x)
    sol = m.solve()
    assert sol.dual(cap) == pytest.approx(2.0)


def test_dual_of_ge_constraint_min():
    # min 3x st x >= 5: dual is 3 (cost of one more unit of requirement).
    m = ExprModel(sense="min")
    x = m.add_variable("x")
    req = m.add_constraint(x >= 5.0)
    m.set_objective(3.0 * x)
    sol = m.solve()
    assert sol.dual(req) == pytest.approx(3.0)


def test_dual_of_ge_constraint_max():
    # max -x st x >= 5: increasing the requirement lowers the optimum by 1.
    m = ExprModel(sense="max")
    x = m.add_variable("x")
    req = m.add_constraint(x >= 5.0)
    m.set_objective(-1.0 * x)
    sol = m.solve()
    assert sol.dual(req) == pytest.approx(-1.0)


def test_dual_zero_when_slack():
    m = ExprModel(sense="max")
    x = m.add_variable("x", ub=1.0)
    loose = m.add_constraint(x <= 100.0)
    m.set_objective(x.to_expr())
    sol = m.solve()
    assert sol.dual(loose) == pytest.approx(0.0)


def test_dual_not_available_for_unadded_constraint():
    m = ExprModel(sense="max")
    x = m.add_variable("x", ub=1.0)
    m.set_objective(x.to_expr())
    sol = m.solve()
    orphan = x <= 0.5
    with pytest.raises(ModelError):
        sol.dual(orphan)


def test_value_of_expression():
    m = ExprModel(sense="max")
    x = m.add_variable("x", ub=2.0)
    y = m.add_variable("y", ub=3.0)
    m.set_objective(x + y)
    sol = m.solve()
    assert sol.value_of(2 * x + y + 1) == pytest.approx(8.0)
    assert sol.value_of(x) == pytest.approx(2.0)
    assert sol.values([x, y]) == pytest.approx([2.0, 3.0])


def test_transportation_problem_duals_sum():
    """Classic 2x2 transportation LP: strong duality holds."""
    m = ExprModel(sense="min")
    flows = {}
    cost = {("a", "u"): 4.0, ("a", "v"): 6.0, ("b", "u"): 5.0, ("b", "v"): 3.0}
    for key in cost:
        flows[key] = m.add_variable(f"f{key}")
    supply = {"a": 10.0, "b": 15.0}
    demand = {"u": 12.0, "v": 13.0}
    supply_cons = {
        s: m.add_constraint(
            quicksum(f for (src, _), f in flows.items() if src == s) <= supply[s])
        for s in supply
    }
    demand_cons = {
        d: m.add_constraint(
            quicksum(f for (_, dst), f in flows.items() if dst == d) >= demand[d])
        for d in demand
    }
    m.set_objective(quicksum(cost[k] * flows[k] for k in flows))
    sol = m.solve()
    dual_obj = (sum(supply[s] * sol.dual(supply_cons[s]) for s in supply)
                + sum(demand[d] * sol.dual(demand_cons[d]) for d in demand))
    assert dual_obj == pytest.approx(sol.objective, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    caps=st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=2,
                  max_size=6),
    weights=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2,
                     max_size=6),
)
def test_knapsack_lp_upper_bound_property(caps, weights):
    """max sum(w_i x_i) st sum(x_i) <= C, 0 <= x_i <= cap_i.

    The LP optimum must equal the greedy fractional-knapsack value.
    """
    n = min(len(caps), len(weights))
    caps, weights = caps[:n], weights[:n]
    budget = sum(caps) * 0.6
    m = ExprModel(sense="max")
    xs = [m.add_variable(f"x{i}", ub=caps[i]) for i in range(n)]
    m.add_constraint(quicksum(xs) <= budget)
    m.set_objective(quicksum(w * x for w, x in zip(weights, xs)))
    sol = m.solve()

    remaining = budget
    greedy = 0.0
    for w, cap in sorted(zip(weights, caps), reverse=True):
        take = min(cap, remaining)
        greedy += w * take
        remaining -= take
    assert sol.objective == pytest.approx(greedy, rel=1e-6, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=1000))
def test_random_feasibility_property(n, seed):
    """Box-constrained LPs: optimum sits at the greedy corner."""
    rng = np.random.default_rng(seed)
    ubs = rng.uniform(0.1, 5.0, size=n)
    obj = rng.uniform(-2.0, 2.0, size=n)
    m = ExprModel(sense="max")
    xs = [m.add_variable(f"x{i}", ub=float(ubs[i])) for i in range(n)]
    m.set_objective(quicksum(float(obj[i]) * xs[i] for i in range(n)))
    sol = m.solve()
    expected = float(np.sum(np.maximum(obj, 0.0) * ubs))
    assert sol.objective == pytest.approx(expected, rel=1e-6, abs=1e-8)
