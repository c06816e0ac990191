"""Differential tests: COO LP builders vs the reference expression builders.

The batched builders mirror the reference emission order exactly, so the
assembled matrices are identical and HiGHS returns the same optimum.
The expression builders live in ``tests/reference/expr_builders.py``;
these tests compare the *user-visible* results — SAM plans, PC duals and
installed prices, offline schedules — on randomised scenarios, within
the repo-wide equivalence tolerances (objective 1e-6 relative, duals
1e-6 absolute), and the assembled LPs of whole runs array for array.
"""

import random

import numpy as np
import pytest

import repro
from repro.baselines.base import ScheduleItem, solve_offline_schedule
from repro.core import (ByteRequest, NetworkState, PretiumConfig,
                        PriceComputer, RequestAdmission, ScheduleAdjuster)
from repro.experiments.scenarios import tiny_scenario
from repro.lp import solver
from repro.network import small_wan
from repro.registry import SCHEMES
from repro.traffic import build_workload
from tests.lp.test_native_solve import captured_models
from tests.reference.expr_builders import (ExprAdjuster, ExprPriceComputer,
                                           expr_builders)


def build_contracts(state, ra, rng, n_requests, horizon):
    nodes = list(state.topology.nodes)
    contracts = []
    for rid in range(n_requests):
        src, dst = rng.sample(nodes, 2)
        start = rng.randrange(0, max(1, horizon // 3))
        deadline = min(horizon - 1, start + rng.randrange(1, horizon // 2))
        req = ByteRequest(rid, src, dst, rng.uniform(2.0, 30.0), 0,
                          start, deadline, 1.0)
        menu = ra.quote(req, now=0)
        contract = ra.admit(req, menu, req.demand, 0)
        if contract:
            contracts.append(contract)
    return contracts


def sam_plan(adjuster, encoding, short_term, now, seed=13):
    rng = random.Random(seed)
    topo = small_wan(seed=2)
    config = PretiumConfig(window=6, lookback=6, topk_encoding=encoding,
                           short_term_adjustment=short_term)
    state = NetworkState(topo, 18, config)
    ra = RequestAdmission(state)
    sam = adjuster(state, billing_window=6)
    contracts = build_contracts(state, ra, rng, 10, 18)
    delivered = {c.rid: rng.uniform(0.0, 0.4) * c.chosen for c in contracts}
    realized = np.abs(np.random.default_rng(3).normal(
        2.0, 1.0, (state.n_steps, topo.num_links)))
    return sam.adjust(contracts, delivered, realized, now=now)


@pytest.mark.parametrize("encoding", ["cvar", "sorting"])
@pytest.mark.parametrize("short_term", [True, False])
def test_sam_coo_matches_expression_plan(encoding, short_term):
    expr = sam_plan(ExprAdjuster, encoding, short_term, now=4)
    coo = sam_plan(ScheduleAdjuster, encoding, short_term, now=4)
    assert len(expr) == len(coo) and len(expr) > 0
    for te, tc in zip(expr, coo):
        assert (te.rid, te.links, te.timestep) == \
            (tc.rid, tc.links, tc.timestep)
        assert tc.volume == pytest.approx(te.volume, abs=1e-6)


def pc_prices(pricer, encoding, seed=17):
    rng = random.Random(seed)
    topo = small_wan(seed=3)
    config = PretiumConfig(window=6, lookback=9, topk_encoding=encoding)
    state = NetworkState(topo, 24, config)
    ra = RequestAdmission(state)
    pc = pricer(state, billing_window=6)
    contracts = build_contracts(state, ra, rng, 12, 20)
    duals, covered = pc._solve_offline_coo(contracts, 1, 10)
    changed = pc.update(contracts, now=9)
    return duals, covered, changed, state.prices.copy()


@pytest.mark.parametrize("encoding", ["cvar", "sorting"])
def test_pc_coo_matches_expression_duals_and_prices(encoding):
    duals_e, cov_e, changed_e, prices_e = pc_prices(ExprPriceComputer,
                                                    encoding)
    duals_c, cov_c, changed_c, prices_c = pc_prices(PriceComputer, encoding)
    assert changed_e and changed_c
    assert np.count_nonzero(duals_e) > 0  # the LP actually priced links
    np.testing.assert_allclose(duals_c, duals_e, atol=1e-6)
    assert np.array_equal(cov_c, cov_e)
    np.testing.assert_allclose(prices_c, prices_e, atol=1e-6)


@pytest.mark.parametrize("objective", ["weighted", "bytes_then_cost"])
def test_offline_schedule_coo_matches_expression(objective):
    topo = small_wan(seed=4)
    workload = build_workload(topo, n_days=1, steps_per_day=8,
                              load_factor=1.5, seed=9)
    items = [ScheduleItem(request=r, weight=r.value, cap=r.demand)
             for r in workload.requests[:400]]
    kwargs = dict(route_count=3, topk_fraction=0.25, include_costs=True,
                  objective=objective)
    with expr_builders():
        expr = solve_offline_schedule(workload, items, **kwargs)
    coo = solve_offline_schedule(workload, items, **kwargs)
    rel = 1e-6 * max(1.0, abs(expr.objective))
    assert coo.objective == pytest.approx(expr.objective, abs=rel)
    np.testing.assert_allclose(coo.loads, expr.loads, atol=1e-6)
    assert coo.delivered.keys() == expr.delivered.keys()
    for rid, volume in expr.delivered.items():
        assert coo.delivered[rid] == pytest.approx(volume, abs=1e-6)
        np.testing.assert_allclose(coo.per_step[rid], expr.per_step[rid],
                                   atol=1e-6)


def run_lps(scheme):
    """The assembled LP of every solve of a ``tiny`` run of ``scheme``."""
    with captured_models() as models:
        repro.run(scheme, tiny_scenario(seed=0))
    return [solver._assemble(model) for model in models]


@pytest.mark.parametrize("scheme", SCHEMES.names())
def test_expression_builders_assemble_the_emitters_arrays(scheme):
    """Array equality, not byte equality: the expression API moves
    constants across the relation, so a zero in ``lhs``/``rhs`` may
    carry the other sign."""
    fast = run_lps(scheme)
    with expr_builders():
        reference = run_lps(scheme)
    assert len(fast) == len(reference)
    assert fast or scheme == "Pretium-NoSAM"
    for new, old in zip(fast, reference):
        for name in ("c", "lb", "ub", "lhs", "rhs"):
            assert np.array_equal(getattr(new, name), getattr(old, name)), \
                name
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(new.matrix, name),
                                  getattr(old.matrix, name)), name
