"""Tests for the batched (COO) model-construction path.

The COO API must be an exact twin of the expression oracle
(``tests/reference/expr.py``): same index space, same assembled matrix,
same solutions and duals.  These tests pin the block bookkeeping, the
validation errors, and the differential equivalence on small LPs.
"""

import numpy as np
import pytest

from repro.lp import EQ, GE, LE, Model, add_sum_topk_coo
from repro.lp.errors import ModelError
from tests.reference.expr import ExprModel, add_sum_topk
from tests.reference.lp import assert_models_identical, bounds


# -- variable blocks -----------------------------------------------------

def test_variable_block_indices_and_interleaving():
    m = ExprModel()
    a = m.add_variable("a")
    block = m.add_variables_array(3, "b", lb=1.0, ub=5.0)
    c = m.add_variable("c")
    assert a.index == 0
    assert list(block.indices) == [1, 2, 3]
    assert block.start == 1 and block.stop == 4 and len(block) == 3
    assert c.index == 4
    assert m.num_variables == 5


def test_variable_block_materialises_variables():
    m = Model()
    block = m.add_variables_array(2, "x", lb=np.array([0.0, 1.0]),
                                  ub=np.array([2.0, np.inf]))
    assert bounds(m) == [(0.0, 2.0), (1.0, None)]  # inf means unbounded
    assert m.lb[block.start:block.stop].tolist() == [0.0, 1.0]


def test_variable_block_bound_validation():
    m = Model()
    with pytest.raises(ModelError):
        m.add_variables_array(2, "x", lb=3.0, ub=1.0)
    with pytest.raises(ModelError):
        m.add_variables_array(2, "x", lb=np.zeros(3))
    with pytest.raises(ModelError):
        m.add_variables_array(-1, "x")


def test_block_variables_work_with_expression_api():
    m = ExprModel(sense="max")
    block = m.add_variables_array(2, "x", lb=0.0, ub=4.0)
    y = m.add_variable("y", ub=1.0)
    m.add_constraints_coo([0, 0], block.indices, [1.0, 1.0], LE, [6.0])
    m.add_constraint(y <= 0.5)
    m.set_objective_coo([*block.indices, y.index], [1.0, 2.0, 1.0])
    sol = m.solve()
    assert sol.objective == pytest.approx(10.5)
    assert sol.x[block.start:block.stop] == pytest.approx([2.0, 4.0])
    assert sol.value(y) == pytest.approx(0.5)


# -- COO constraints -----------------------------------------------------

def test_constraint_block_indices_interleave_with_expression_rows():
    m = ExprModel()
    x = m.add_variables(3, "x")
    m.add_constraint(x[0] + x[1] <= 1.0)
    block = m.add_constraints_coo([0, 0, 1], [0, 1, 2], [1.0, 1.0, 1.0],
                                  LE, [1.0, 2.0])
    after = m.add_constraint(x[2] >= 0.5)
    assert block.start == 1 and block.count == 2
    assert list(block.indices) == [1, 2]
    assert after.index == 3
    assert m.num_constraints == 4


def test_constraints_coo_validation():
    m = Model()
    m.add_variables_array(2, "x")
    with pytest.raises(ModelError):  # shape mismatch
        m.add_constraints_coo([0], [0, 1], [1.0], LE, [1.0])
    with pytest.raises(ModelError):  # row out of range
        m.add_constraints_coo([1], [0], [1.0], LE, [1.0])
    with pytest.raises(ModelError):  # unknown variable
        m.add_constraints_coo([0], [5], [1.0], LE, [1.0])
    with pytest.raises(ModelError):  # unknown sense (shared)
        m.add_constraints_coo([0], [0], [1.0], "<", [1.0])
    with pytest.raises(ModelError):  # unknown sense (per-row)
        m.add_constraints_coo([0], [0], [1.0], ["<"], [1.0])
    with pytest.raises(ModelError):  # sense count mismatch
        m.add_constraints_coo([0], [0], [1.0], [LE, GE], [1.0])


def test_duplicate_coo_entries_are_summed():
    m = Model(sense="max")
    x = m.add_variables_array(1, "x", ub=10.0)
    # 0.5*x + 0.5*x <= 4  ==  x <= 4
    m.add_constraints_coo([0, 0], [0, 0], [0.5, 0.5], LE, [4.0])
    m.set_objective_coo([0, 0], [1.0, 1.0])  # 2*x
    sol = m.solve()
    assert sol.x[0] == pytest.approx(4.0)
    assert sol.objective == pytest.approx(8.0)


def test_objective_coo_validation_and_reset():
    m = Model()
    m.add_variables_array(2, "x", ub=1.0)
    with pytest.raises(ModelError):
        m.set_objective_coo([3], [1.0])
    with pytest.raises(ModelError):
        m.set_objective_coo([0, 1], [1.0])
    m.set_objective_coo([0], [1.0])
    m.set_objective_coo([1], [2.0])  # replaces the first, never adds
    assert m.solve().objective == pytest.approx(2.0)


# -- differential equivalence -------------------------------------------

def build_expr(sense):
    m = ExprModel(sense=sense)
    x = [m.add_variable(f"x{i}", lb=0.0, ub=4.0) for i in range(3)]
    m.add_constraint(x[0] + x[1] + x[2] <= 6.0, name="cap")
    m.add_constraint(x[0] + x[1] >= 1.0, name="floor")
    m.add_constraint(x[1] - x[2] == 0.0, name="tie")
    m.set_objective(3.0 * x[0] + 2.0 * x[1] + 1.0 * x[2])
    return m


def build_coo(sense):
    m = Model(sense=sense)
    block = m.add_variables_array(3, "x", lb=0.0, ub=4.0)
    m.add_constraints_coo(
        [0, 0, 0, 1, 1, 2, 2], [0, 1, 2, 0, 1, 1, 2],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0],
        [LE, GE, EQ], [6.0, 1.0, 0.0], name="rows")
    m.set_objective_coo(block.indices, [3.0, 2.0, 1.0])
    return m


@pytest.mark.parametrize("sense", ["max", "min"])
def test_coo_model_matches_expression_model(sense):
    se = build_expr(sense).solve()
    sc = build_coo(sense).solve()
    assert sc.objective == pytest.approx(se.objective)
    assert sc.x == pytest.approx(se.x)
    for row in range(3):
        assert sc.duals[row] == pytest.approx(se.duals[row], abs=1e-9)


def test_dual_array_matches_scalar_duals():
    m = Model(sense="max")
    block_vars = m.add_variables_array(2, "x", ub=3.0)
    rows = m.add_constraints_coo([0, 1], [0, 1], [1.0, 1.0],
                                 LE, [2.0, 1.0])
    m.set_objective_coo(block_vars.indices, [1.0, 5.0])
    sol = m.solve()
    duals = sol.dual_array(rows)
    assert duals == pytest.approx([sol.duals[i] for i in rows.indices])
    assert duals == pytest.approx([1.0, 5.0])


# -- objective constants (solver dedup regression) ----------------------

@pytest.mark.parametrize("sense,expected", [("max", 9.0), ("min", 6.0)])
def test_objective_constant_both_senses_expression(sense, expected):
    m = ExprModel(sense=sense)
    x = m.add_variable("x", lb=1.0, ub=2.0)
    m.set_objective(3.0 * x + 3.0)
    assert m.solve().objective == pytest.approx(expected)


@pytest.mark.parametrize("sense,expected", [("max", 9.0), ("min", 6.0)])
def test_objective_constant_both_senses_coo(sense, expected):
    m = Model(sense=sense)
    m.add_variables_array(1, "x", lb=1.0, ub=2.0)
    m.set_objective_coo([0], [3.0], constant=3.0)
    assert m.solve().objective == pytest.approx(expected)


# -- top-k twins ---------------------------------------------------------

@pytest.mark.parametrize("encoding", ["cvar", "sorting"])
@pytest.mark.parametrize("k", range(1, 9))
def test_topk_coo_matches_expression_encoding(encoding, k):
    """Every ``k <= T <= 8``: the emitted encoding assembles to the
    oracle's bytes, zero signs aside."""
    for T in range(k, 9):
        values = np.random.default_rng(T).uniform(0.0, 10.0, size=T)

        me = ExprModel(sense="min")
        fixed = [me.add_variable(f"v{i}", lb=v, ub=v)
                 for i, v in enumerate(values.tolist())]
        me.set_objective(1.0 * add_sum_topk(me, fixed, k, name="z",
                                            encoding=encoding))

        mc = Model(sense="min")
        block = mc.add_variables_array(T, "v", lb=values, ub=values)
        s_index = add_sum_topk_coo(mc, block.indices, k, name="z",
                                   encoding=encoding)
        mc.set_objective_coo([s_index], [1.0])

        assert_models_identical(mc, me, signed_zeros=False)
