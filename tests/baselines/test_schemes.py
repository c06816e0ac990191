"""Tests for the individual baseline schemes."""

import numpy as np
import pytest

from repro.baselines import (NoPrices, OfflineOptimal, PeakOracle,
                             PretiumNoMenu, PretiumNoSAM, RegionOracle,
                             VCGLike, offered_demand_profile,
                             peak_steps_of_day)
from repro.core import ByteRequest
from repro.costs import LinkCostModel
from repro.experiments import tiny_scenario
from repro.network import Topology, parallel_paths_network, wan_topology
from repro.sim import metrics, simulate
from repro.traffic import Workload, build_workload
from tests.lp.test_native_solve import captured_models
from tests.reference.expr_builders import ExprVCGLike
from tests.reference.lp import assert_models_identical, same_bytes


def simple_workload():
    topo = parallel_paths_network(10.0, 10.0)
    reqs = [
        ByteRequest(0, "S", "T", 10.0, 0, 0, 1, 3.0),
        ByteRequest(1, "S", "T", 10.0, 0, 0, 3, 1.0),
        ByteRequest(2, "S", "T", 10.0, 2, 2, 3, 0.2),
    ]
    return Workload(topo, reqs, n_steps=4, steps_per_day=4), topo


def regioned_workload():
    topo = wan_topology(n_nodes=8, n_regions=2, seed=1,
                        metered_fraction=0.25)
    return build_workload(topo, n_days=1, steps_per_day=6, load_factor=2.0,
                          seed=1, max_requests_per_pair=10), topo


# -- OPT ------------------------------------------------------------------

def test_opt_serves_everything_when_free():
    wl, topo = simple_workload()
    result = OfflineOptimal().run(wl)
    for r in wl.requests:
        assert result.delivered[r.rid] == pytest.approx(r.demand)
    assert result.scheme_name == "OPT"


def test_opt_dominates_other_schemes():
    wl, topo = regioned_workload()
    cm = LinkCostModel(topo, billing_window=wl.steps_per_day)
    opt_welfare = metrics.welfare(OfflineOptimal().run(wl), cm)
    for scheme in (NoPrices(), RegionOracle(grid_points=4),
                   PeakOracle(grid_points=4)):
        assert metrics.welfare(scheme.run(wl), cm) <= opt_welfare + 1e-6


def test_opt_skips_negative_welfare_traffic():
    topo = Topology()
    topo.add_link("a", "b", 10.0, metered=True, cost_per_unit=100.0)
    reqs = [ByteRequest(0, "a", "b", 10.0, 0, 0, 3, 0.01)]
    wl = Workload(topo, reqs, n_steps=4, steps_per_day=4)
    result = OfflineOptimal().run(wl)
    assert result.delivered.get(0, 0.0) == pytest.approx(0.0, abs=1e-6)


# -- NoPrices ---------------------------------------------------------------

def test_noprices_ignores_values():
    wl, topo = simple_workload()
    result = NoPrices().run(wl)
    # everything fits, so everything is carried regardless of value
    for r in wl.requests:
        assert result.delivered[r.rid] == pytest.approx(r.demand)


def test_noprices_can_produce_negative_welfare():
    """Carrying worthless traffic on costly links: welfare < 0 (Fig 6)."""
    topo = Topology()
    topo.add_link("a", "b", 10.0, metered=True, cost_per_unit=5.0)
    reqs = [ByteRequest(0, "a", "b", 20.0, 0, 0, 3, 0.01)]
    wl = Workload(topo, reqs, n_steps=4, steps_per_day=4)
    result = NoPrices(mode="cost_blind").run(wl)
    cm = LinkCostModel(topo, billing_window=4)
    assert metrics.welfare(result, cm) < 0


# -- RegionOracle -------------------------------------------------------------

def test_region_oracle_admits_by_price():
    wl, topo = regioned_workload()
    result = RegionOracle(grid_points=4).run(wl)
    intra = result.extras["intra_price"]
    inter = result.extras["inter_price"]
    assert inter >= intra
    # no request with value below its applicable price was served
    from repro.network.regions import is_inter_region
    for r in wl.requests:
        if result.delivered.get(r.rid, 0.0) > 1e-6:
            price = inter if is_inter_region(topo, r.src, r.dst) else intra
            assert r.value >= price - 1e-9


def test_region_oracle_payments_match_prices():
    wl, topo = regioned_workload()
    result = RegionOracle(grid_points=4).run(wl)
    from repro.network.regions import is_inter_region
    by_id = {r.rid: r for r in wl.requests}
    for rid, paid in result.payments.items():
        r = by_id[rid]
        price = result.extras["inter_price"] \
            if is_inter_region(topo, r.src, r.dst) \
            else result.extras["intra_price"]
        assert paid == pytest.approx(price * result.delivered[rid])


def test_region_oracle_validation():
    with pytest.raises(ValueError):
        RegionOracle(grid_points=0)


# -- PeakOracle ---------------------------------------------------------------

def test_offered_demand_profile_folds_days():
    topo = parallel_paths_network()
    reqs = [ByteRequest(0, "S", "T", 4.0, 0, 0, 1, 1.0),
            ByteRequest(1, "S", "T", 4.0, 2, 2, 3, 1.0)]
    wl = Workload(topo, reqs, n_steps=4, steps_per_day=2)
    profile = offered_demand_profile(wl)
    assert profile.shape == (2,)
    assert profile.sum() == pytest.approx(4.0)


def test_peak_steps_above_average():
    topo = parallel_paths_network()
    reqs = [ByteRequest(0, "S", "T", 30.0, 1, 1, 1, 1.0),
            ByteRequest(1, "S", "T", 2.0, 0, 0, 3, 1.0)]
    wl = Workload(topo, reqs, n_steps=4, steps_per_day=4)
    assert peak_steps_of_day(wl) == {1}


def test_peak_oracle_charges_step_prices():
    wl, topo = regioned_workload()
    result = PeakOracle(grid_points=4).run(wl)
    assert result.extras["peak_price"] >= result.extras["off_price"]
    assert all(p >= -1e-9 for p in result.payments.values())


def test_peak_oracle_validation():
    with pytest.raises(ValueError):
        PeakOracle(grid_points=0)


# -- VCGLike --------------------------------------------------------------------

def test_vcg_like_serves_high_value_first():
    topo = parallel_paths_network(5.0, 5.0)
    reqs = [ByteRequest(0, "S", "T", 10.0, 0, 0, 0, 3.0),
            ByteRequest(1, "S", "T", 10.0, 0, 0, 0, 1.0)]
    wl = Workload(topo, reqs, n_steps=1, steps_per_day=1)
    result = VCGLike().run(wl)
    # 10 units capacity in one step; both want 10; high value wins
    assert result.delivered.get(0, 0.0) == pytest.approx(10.0)
    assert result.delivered.get(1, 0.0) == pytest.approx(0.0, abs=1e-6)


def test_vcg_payments_are_externalities():
    topo = parallel_paths_network(5.0, 5.0)
    reqs = [ByteRequest(0, "S", "T", 10.0, 0, 0, 0, 3.0),
            ByteRequest(1, "S", "T", 10.0, 0, 0, 0, 1.0)]
    wl = Workload(topo, reqs, n_steps=1, steps_per_day=1)
    result = VCGLike().run(wl)
    # without request 0, request 1 would have carried 10 units at value 1
    assert result.payments[0] == pytest.approx(10.0)


def test_vcg_no_payment_without_contention():
    topo = parallel_paths_network(10.0, 10.0)
    reqs = [ByteRequest(0, "S", "T", 5.0, 0, 0, 1, 3.0)]
    wl = Workload(topo, reqs, n_steps=2, steps_per_day=2)
    result = VCGLike().run(wl)
    assert result.delivered[0] == pytest.approx(5.0)
    assert result.payments.get(0, 0.0) == pytest.approx(0.0, abs=1e-6)


def test_vcg_spreads_over_steps_to_deadline():
    topo = parallel_paths_network(5.0, 5.0)
    reqs = [ByteRequest(0, "S", "T", 20.0, 0, 0, 1, 2.0)]
    wl = Workload(topo, reqs, n_steps=2, steps_per_day=2)
    result = VCGLike().run(wl)
    # rate at t=0 is 20/2 = 10 (both paths), rest at t=1
    assert result.delivered[0] == pytest.approx(20.0)
    assert result.loads[0].sum() == pytest.approx(result.loads[1].sum())


def test_vcg_like_waits_for_a_requests_start():
    """A request submitted at 0 to start at 1 sends nothing at 0."""
    topo = parallel_paths_network(5.0, 5.0)
    reqs = [ByteRequest(0, "S", "T", 10.0, 0, 1, 1, 3.0)]
    wl = Workload(topo, reqs, n_steps=2, steps_per_day=2)
    per_step = VCGLike().run(wl).loads.sum(axis=1)
    assert per_step == pytest.approx([0.0, 20.0])  # 10 units, 2-link paths
    assert per_step == pytest.approx(
        OfflineOptimal().run(wl).loads.sum(axis=1))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vcg_like_builds_the_expression_oracles_lps(seed):
    """Every per-step auction reaches HiGHS as the bytes the term-by-term
    builder produced, and the run ends the same.  (``quick`` agrees too,
    480 LPs; it is too slow to run here.)"""
    workload = tiny_scenario(seed=seed).workload
    with captured_models() as models:
        fast = VCGLike().run(workload)
    with captured_models() as oracle_models:
        oracle = ExprVCGLike().run(workload)
    assert len(models) == len(oracle_models) > 0
    for model, expected in zip(models, oracle_models):
        assert (model.name, model.sense) == (expected.name, expected.sense)
        assert_models_identical(model, expected)
    assert fast.delivered == oracle.delivered
    assert fast.payments == oracle.payments
    assert fast.chosen == oracle.chosen
    assert same_bytes(fast.loads, oracle.loads)


# -- Ablations -------------------------------------------------------------------

def test_nomenu_is_all_or_nothing():
    topo = parallel_paths_network(10.0, 10.0)
    # demand exceeds guarantee capacity -> NoMenu must reject entirely
    reqs = [ByteRequest(0, "S", "T", 100.0, 0, 0, 1, 5.0)]
    wl = Workload(topo, reqs, n_steps=2, steps_per_day=2)
    result = simulate(PretiumNoMenu(), wl)
    assert result.delivered.get(0, 0.0) == pytest.approx(0.0, abs=1e-6)
    full = simulate(PretiumNoMenu(), Workload(
        topo, [ByteRequest(0, "S", "T", 30.0, 0, 0, 1, 5.0)],
        n_steps=2, steps_per_day=2))
    assert full.delivered[0] == pytest.approx(30.0)


def test_nosam_uses_config_flag():
    wl, _ = regioned_workload()
    scheme = PretiumNoSAM()
    result = simulate(scheme, wl)
    assert scheme.config.sam_enabled is False
    assert result.scheme_name == "Pretium-NoSAM"


def test_ablation_names():
    assert PretiumNoMenu().name == "Pretium-NoMenu"
    assert PretiumNoSAM().name == "Pretium-NoSAM"
