"""Tests for the sum-of-top-k encodings (paper Theorem 4.2 + CVaR), as
:func:`~repro.lp.add_sum_topk_coo` emits them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import EQ, GE, Model, add_sum_topk_coo, topk_template
from tests.builders import sum_topk_exact


def _solve_topk(values, k, encoding):
    """Pin x_t == values and minimise the bound variable S."""
    T = len(values)
    m = Model(sense="min")
    xs = m.add_variables_array(T, "x")
    m.add_constraints_coo(np.arange(T), xs.indices, np.ones(T), EQ,
                          [float(val) for val in values])
    total = add_sum_topk_coo(m, xs.indices, k, encoding=encoding)
    m.set_objective_coo([total], [1.0])
    return m.solve().objective


def test_sum_topk_exact_reference():
    assert sum_topk_exact([5, 1, 4, 2], 2) == 9
    assert sum_topk_exact([5, 1, 4, 2], 4) == 12
    assert sum_topk_exact([5, 1], 10) == 6
    assert sum_topk_exact([5, 1], 0) == 0


@pytest.mark.parametrize("encoding", ["cvar", "sorting"])
@pytest.mark.parametrize("values,k", [
    ([3.0, 1.0, 2.0], 1),
    ([3.0, 1.0, 2.0], 2),
    ([3.0, 1.0, 2.0], 3),
    ([0.0, 0.0, 0.0, 0.0], 2),
    ([10.0, 10.0, 10.0], 2),
    ([7.5, 1.25, 9.0, 3.0, 2.0, 8.0], 3),
])
def test_topk_matches_exact(encoding, values, k):
    got = _solve_topk(values, k, encoding)
    assert got == pytest.approx(sum_topk_exact(values, k), abs=1e-7)


@pytest.mark.parametrize("encoding", ["cvar", "sorting"])
def test_topk_single_element(encoding):
    assert _solve_topk([4.2], 1, encoding) == pytest.approx(4.2)


def test_unknown_encoding_rejected():
    m = Model()
    xs = m.add_variables_array(3)
    with pytest.raises(ValueError):
        add_sum_topk_coo(m, xs.indices, 1, encoding="quantum")


@pytest.mark.parametrize("encoding", ["cvar", "sorting"])
def test_bad_k_rejected(encoding):
    m = Model()
    xs = m.add_variables_array(3)
    with pytest.raises(ValueError):
        add_sum_topk_coo(m, xs.indices, 0, encoding=encoding)
    with pytest.raises(ValueError):
        add_sum_topk_coo(m, xs.indices, 4, encoding=encoding)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=10),
    k_frac=st.floats(min_value=0.01, max_value=1.0),
)
def test_cvar_equals_exact_property(values, k_frac):
    k = max(1, int(round(k_frac * len(values))))
    k = min(k, len(values))
    got = _solve_topk(values, k, "cvar")
    assert got == pytest.approx(sum_topk_exact(values, k), abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0.0, max_value=50.0),
                    min_size=2, max_size=7),
    k=st.integers(min_value=1, max_value=3),
)
def test_sorting_equals_exact_property(values, k):
    k = min(k, len(values))
    got = _solve_topk(values, k, "sorting")
    assert got == pytest.approx(sum_topk_exact(values, k), abs=1e-6)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_encodings_agree_inside_optimisation(seed):
    """Both encodings must give the same optimum when x is a real decision.

    min sum(x) + S(topk of x) subject to sum(x) >= B, x_t <= cap_t: the two
    encodings are both tight at the optimum, so the objectives coincide.
    """
    rng = np.random.default_rng(seed)
    T = int(rng.integers(3, 7))
    k = int(rng.integers(1, T))
    caps = rng.uniform(1.0, 5.0, size=T)
    budget = float(caps.sum() * 0.7)

    results = {}
    for encoding in ("cvar", "sorting"):
        m = Model(sense="min")
        xs = m.add_variables_array(T, "x", ub=caps)
        m.add_constraints_coo(np.zeros(T), xs.indices, np.ones(T), GE,
                              [budget])
        total = add_sum_topk_coo(m, xs.indices, k, encoding=encoding)
        m.set_objective_coo([*xs.indices, total], [1.0] * T + [2.0])
        results[encoding] = m.solve().objective
    assert results["cvar"] == pytest.approx(results["sorting"], rel=1e-6)


def test_constraint_counts():
    for T in range(1, 11):
        for k in range(1, T + 1):
            assert topk_template(T, k, "cvar").n_rows == T + 1
            # k passes of bubble comparators: sum_{i<k} (T - i - 1) of them,
            # or the bound row alone when k == T.
            comparators = sum(T - i - 1 for i in range(k))
            assert topk_template(T, k, "sorting").n_rows == \
                (1 if k == T else 3 * comparators + 1)
    assert topk_template(10, 2, "sorting").n_rows == 3 * (9 + 8) + 1
    with pytest.raises(ValueError):
        topk_template(10, 2, "bogus")


def test_sorting_uses_three_constraints_per_comparator():
    """The paper claims 40% fewer constraints than prior work's five."""
    T, k = 8, 2
    m = Model(sense="min")
    xs = m.add_variables_array(T)
    before = m.num_constraints
    add_sum_topk_coo(m, xs.indices, k, encoding="sorting")
    added = m.num_constraints - before
    comparators = (T - 1) + (T - 2)
    assert added == 3 * comparators + 1


def test_cvar_is_much_smaller_than_sorting():
    T, k = 50, 5
    assert topk_template(T, k, "cvar").n_rows < \
        topk_template(T, k, "sorting").n_rows / 4
