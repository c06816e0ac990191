"""Ablation: the paper's Theorem 4.2 sorting network vs the CVaR encoding.

Both upper-bound the sum of the top-k exactly at the optimum; the bench
verifies they agree and compares model sizes and solve times.  The
paper's construction uses 3 constraints per comparator (40% fewer than
prior work's 5); the CVaR form is asymptotically smaller still, which is
why it is the default.
"""

import numpy as np
import pytest

from repro.experiments import format_table
from repro.lp import GE, Model, add_sum_topk_coo, topk_template

T, K = 48, 5


def _solve(encoding: str, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    caps = rng.uniform(1.0, 5.0, size=T)
    model = Model(sense="min")
    xs = model.add_variables_array(T, "x", ub=caps)
    model.add_constraints_coo(np.zeros(T), xs.indices, np.ones(T), GE,
                              [float(caps.sum()) * 0.8])
    bound = add_sum_topk_coo(model, xs.indices, K, encoding=encoding)
    model.set_objective_coo([*xs.indices, bound], [0.01] * T + [1.0])
    return model.solve().objective


@pytest.mark.parametrize("encoding", ["cvar", "sorting"])
def bench_topk_encoding(benchmark, encoding):
    objective = benchmark(_solve, encoding)
    rows = [[enc, topk_template(T, K, enc).n_rows]
            for enc in ("cvar", "sorting")]
    print(f"\nTop-k encodings at T={T}, k={K} "
          f"(objective {objective:.4f})")
    print(format_table(["encoding", "constraints"], rows))
    assert _solve("cvar") == pytest.approx(_solve("sorting"), rel=1e-6)
    assert topk_template(T, K, "cvar").n_rows < \
        topk_template(T, K, "sorting").n_rows
