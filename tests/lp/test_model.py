"""Unit tests for the expression oracle ``tests/reference/expr.py``
(expressions, constraints, models)."""

import pytest

from repro.lp import ModelError
from tests.reference.expr import ExprModel, quicksum, weighted_sum


def test_variable_defaults():
    m = ExprModel()
    x = m.add_variable("x")
    assert x.lb == 0.0
    assert x.ub is None
    assert x.name == "x"
    assert x.index == 0


def test_variable_auto_name():
    m = ExprModel()
    v0 = m.add_variable()
    v1 = m.add_variable()
    assert v0.name == "x0"
    assert v1.name == "x1"


def test_variable_bad_bounds_rejected():
    m = ExprModel()
    with pytest.raises(ModelError):
        m.add_variable("x", lb=2.0, ub=1.0)


def test_add_variables_batch():
    m = ExprModel()
    xs = m.add_variables(5, prefix="f", lb=1.0, ub=3.0)
    assert len(xs) == 5
    assert xs[2].name == "f[2]"
    assert all(v.lb == 1.0 and v.ub == 3.0 for v in xs)


def test_expression_arithmetic():
    m = ExprModel()
    x = m.add_variable("x")
    y = m.add_variable("y")
    expr = 2 * x + 3 * y - 4 + x
    assert expr.coeffs[x.index] == pytest.approx(3.0)
    assert expr.coeffs[y.index] == pytest.approx(3.0)
    assert expr.constant == pytest.approx(-4.0)


def test_expression_negation_and_division():
    m = ExprModel()
    x = m.add_variable("x")
    expr = -(x + 2) / 2
    assert expr.coeffs[x.index] == pytest.approx(-0.5)
    assert expr.constant == pytest.approx(-1.0)


def test_rsub():
    m = ExprModel()
    x = m.add_variable("x")
    expr = 5 - x
    assert expr.coeffs[x.index] == pytest.approx(-1.0)
    assert expr.constant == pytest.approx(5.0)


def test_quicksum_matches_manual():
    m = ExprModel()
    xs = m.add_variables(10)
    total = quicksum(xs)
    assert all(total.coeffs[v.index] == 1.0 for v in xs)
    mixed = quicksum([xs[0], 2.0 * xs[1], 7.0])
    assert mixed.coeffs[xs[0].index] == 1.0
    assert mixed.coeffs[xs[1].index] == 2.0
    assert mixed.constant == 7.0


def test_quicksum_rejects_junk():
    with pytest.raises(ModelError):
        quicksum(["not-a-term"])


def test_weighted_sum():
    m = ExprModel()
    xs = m.add_variables(3)
    expr = weighted_sum([(2.0, xs[0]), (0.5, xs[2]), (1.0, xs[0])])
    assert expr.coeffs[xs[0].index] == pytest.approx(3.0)
    assert expr.coeffs[xs[2].index] == pytest.approx(0.5)
    assert xs[1].index not in expr.coeffs


def test_constraint_normalisation():
    m = ExprModel()
    x = m.add_variable("x")
    con = m.add_constraint(2 * x + 1 <= 5, name="cap")
    assert con.rhs == pytest.approx(4.0)
    assert con.sense == "<="
    assert con.name == "cap"
    assert con.index == 0


def test_constraint_between_expressions():
    m = ExprModel()
    x = m.add_variable("x")
    y = m.add_variable("y")
    con = m.add_constraint(x + 1 >= y - 2)
    assert con.sense == ">="
    assert con.rhs == pytest.approx(-3.0)
    assert con.expr.coeffs[y.index] == pytest.approx(-1.0)


def test_equality_constraint_from_variables():
    m = ExprModel()
    x = m.add_variable("x")
    y = m.add_variable("y")
    con = m.add_constraint(x == y)
    assert con.sense == "=="


def test_cross_model_mixing_rejected():
    m1, m2 = ExprModel(), ExprModel()
    x1 = m1.add_variable("x")
    x2 = m2.add_variable("x")
    with pytest.raises(ModelError):
        _ = x1 + x2


def test_cross_model_constraint_rejected():
    m1, m2 = ExprModel(), ExprModel()
    x2 = m2.add_variable("x")
    with pytest.raises(ModelError):
        m1.add_constraint(x2 <= 1.0)


def test_cross_model_objective_rejected():
    m1, m2 = ExprModel(), ExprModel()
    x2 = m2.add_variable("x")
    with pytest.raises(ModelError):
        m1.set_objective(x2.to_expr())


def test_invalid_sense_rejected():
    with pytest.raises(ModelError):
        ExprModel(sense="maximize-hard")


def test_objective_accepts_constant():
    m = ExprModel(sense="min")
    m.set_objective(5.0)
    assert m.objective.constant == 5.0


def test_repr_smoke():
    m = ExprModel(name="demo")
    x = m.add_variable("x")
    con = m.add_constraint(x <= 1)
    assert "demo" in repr(m)
    assert "x" in repr(x)
    assert "Constraint" in repr(con)
    assert "LinExpr" in repr(x + 1)
