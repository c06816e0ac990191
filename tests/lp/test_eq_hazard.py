"""The top-k emitter rejects duplicate sample indices.

A sample entered twice would silently double-count it in the percentile
proxy, so :func:`~repro.lp.add_sum_topk_coo` checks that its input
indices are distinct — and must not flag distinct ones.
"""

import pytest

from repro.lp import Model, add_sum_topk_coo
from repro.lp.errors import ModelError


@pytest.mark.parametrize("encoding", ["cvar", "sorting"])
def test_topk_rejects_duplicate_variables_by_index(encoding):
    m = Model()
    v = m.add_variables_array(3, "v")
    with pytest.raises(ModelError):
        add_sum_topk_coo(m, v.indices[[0, 1, 0]], 2, encoding=encoding)


@pytest.mark.parametrize("encoding", ["cvar", "sorting"])
def test_topk_accepts_distinct_variables(encoding):
    m = Model(sense="min")
    v = m.add_variables_array(3, "v", lb=[0.0, 1.0, 2.0], ub=[0.0, 1.0, 2.0])
    bound = add_sum_topk_coo(m, v.indices, 2, encoding=encoding)
    m.set_objective_coo([bound], [1.0])
    assert m.solve().objective == pytest.approx(3.0)  # 2 + 1
