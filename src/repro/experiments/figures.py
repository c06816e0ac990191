"""One generator per single-run figure/table in the paper's evaluation (§6).

Each ``figureN`` function returns a plain dict of series/rows — exactly
the data the paper's plot shows — which ``python -m repro figure N`` and
the benchmarks print.  Everything is deterministic given the scenario
seed.  Figures 6, 8, 9 and 11 come from the ``figures`` campaign preset.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..baselines import peak_steps_of_day
from ..core import PretiumController
from ..costs import (correlate_topk_with_percentile, synthetic_link_traffic)
from ..network import wan_topology
from ..sim import metrics, simulate
from ..traffic import (NormalValues, build_workload, normal_with_ratio,
                       pareto_with_ratio, route_series_on_shortest_paths,
                       synthesize_tm_series, utilization_percentile_ratios)
from .figure2 import figure2_table
from .runner import run_scheme, run_schemes
from .scenarios import standard_scenario

# -- Figure 1 -----------------------------------------------------------------

def figure1(seed: int = 0, n_nodes: int = 24, days: int = 7,
            steps_per_day: int = 24) -> dict:
    """CDF of the 90th/10th percentile link-utilisation ratio.

    Characterises the offered traffic (before any TE), as the paper does
    with its production trace.  Returns the CDF points plus the two
    headline fractions the paper quotes: links with ratio > 5x (paper:
    >10%) and links with ratio < 2x (paper: ~70%).
    """
    # A steady majority of pairs with a bursty minority reproduces the
    # paper's bimodal CDF (ratio < 2x for ~70% of links, > 5x for >10%).
    topology = wan_topology(n_nodes=n_nodes, n_regions=4, seed=seed)
    series = synthesize_tm_series(
        topology, n_steps=days * steps_per_day, steps_per_day=steps_per_day,
        diurnal_amplitude=0.15, noise_sigma=0.1, bursty_fraction=0.35,
        bursty_sigma=2.0, flash_crowd_rate=0.05, gravity_sigma=1.5,
        seed=seed)
    loads = route_series_on_shortest_paths(topology, series)
    ratios = utilization_percentile_ratios(loads)
    xs, fractions = metrics.cdf_points(ratios)
    return {
        "ratios": xs,
        "cdf": fractions,
        "fraction_above_5x": float(np.mean(ratios > 5.0)),
        "fraction_below_2x": float(np.mean(ratios < 2.0)),
    }


# -- Figure 2 -----------------------------------------------------------------

def figure2() -> dict:
    """The 4-node pricing example table (see :mod:`.figure2`)."""
    rows = figure2_table()
    return {"rows": rows,
            "welfare": {row.scheme: row.welfare for row in rows}}


# -- Figure 4 -----------------------------------------------------------------

def figure4(seed: int = 0) -> dict:
    """Sample price menus: a shorter deadline quotes (weakly) higher
    prices, and the guarantee bound is circled in the paper's plot."""
    scenario = standard_scenario(load_factor=2.0, seed=seed, n_days=1)
    controller = PretiumController()
    controller.begin(scenario.workload)
    # warm utilisation: admit the first half-day of requests
    for request in scenario.workload.requests:
        if request.arrival <= scenario.workload.steps_per_day // 2:
            controller.window_start(request.arrival)
            controller.arrival(request, request.arrival)
    sample = scenario.workload.requests[0]
    src, dst = sample.src, sample.dst
    now = scenario.workload.steps_per_day // 2
    horizon = scenario.workload.n_steps - 1
    from ..core import ByteRequest
    tight = ByteRequest(10 ** 6, src, dst, 1000.0, now, now,
                        min(now + 1, horizon), 1.0)
    loose = ByteRequest(10 ** 6 + 1, src, dst, 1000.0, now, now,
                        min(now + 6, horizon), 1.0)
    menu_tight = controller.admission.quote(tight, now)
    menu_loose = controller.admission.quote(loose, now)
    return {
        "tight": {"breakpoints": menu_tight.breakpoints(),
                  "x_bar": menu_tight.max_guaranteed},
        "loose": {"breakpoints": menu_loose.breakpoints(),
                  "x_bar": menu_loose.max_guaranteed},
    }


# -- Figure 5 -----------------------------------------------------------------

def figure5(seed: int = 0) -> dict:
    """z_e vs y_e linear-correlation scatter per traffic distribution."""
    out = {}
    for distribution in ("normal", "exponential", "pareto"):
        loads = synthetic_link_traffic(distribution, n_steps=24 * 7,
                                       n_links=60, seed=seed)
        result = correlate_topk_with_percentile(loads)
        out[distribution] = {
            "slope": result.slope, "intercept": result.intercept,
            "r": result.r, "r_squared": result.r_squared,
            "points": list(zip(result.y_values.tolist(),
                               result.z_values.tolist())),
        }
    return out


# -- Figure 7 -----------------------------------------------------------------

def figure7(seed: int = 0, load_factor: float = 2.0) -> dict:
    """Price dynamics (7a), value capture by bucket (7b), price paid vs
    value (7c) — all from one Pretium run at load factor 2."""
    scenario = standard_scenario(load_factor=load_factor, seed=seed)
    controller = PretiumController()
    result = simulate(controller, scenario.workload)

    # 7a: the paper plots "a particular link" where prices visibly track
    # utilisation; pick the carried link whose price/utilisation
    # correlation is highest (links pinned at the price floor or at
    # saturation show nothing).
    prices = result.extras["prices"]
    caps = np.array([l.capacity for l in scenario.topology.links])
    utilization = result.loads / caps[None, :]
    best_link, best_corr = 0, -2.0
    for index in range(utilization.shape[1]):
        u = utilization[:, index]
        p = prices[:, index]
        if u.mean() < 0.05 or u.std() < 1e-9 or p.std() < 1e-9:
            continue
        corr = float(np.corrcoef(p, u)[0, 1])
        if corr > best_corr:
            best_link, best_corr = index, corr
    series_7a = {"link": best_link, "corr": best_corr,
                 "utilization": utilization[:, best_link].tolist(),
                 "price": prices[:, best_link].tolist()}

    # 7b: value captured per value-per-byte bucket, relative to OPT.
    opt = run_scheme("OPT", scenario)
    values = [r.value for r in scenario.workload.requests]
    edges = np.percentile(values, np.linspace(0, 100, 6))
    edges[-1] += 1e-9
    _, pretium_buckets = metrics.value_by_bucket(result, edges)
    _, opt_buckets = metrics.value_by_bucket(opt, edges)
    series_7b = {"edges": edges.tolist(),
                 "pretium": pretium_buckets.tolist(),
                 "opt": opt_buckets.tolist()}

    # 7c: (value, price paid per byte) scatter.
    series_7c = metrics.admission_price_points(result)
    return {"price_dynamics": series_7a, "value_buckets": series_7b,
            "price_vs_value": series_7c}


# -- Figure 10 -----------------------------------------------------------------

def figure10(seed: int = 0, load_factor: float = 2.0,
             schemes=("NoPrices", "RegionOracle", "Pretium")) -> dict:
    """CDF of 90th-percentile link utilisation per scheme.

    Absolute utilisations are not comparable across schemes that carry
    very different volumes (in our cost regime RegionOracle admits far
    less traffic than the paper's), so alongside the paper's CDF we
    report each scheme's median *peak-to-mean* load ratio on carried
    links — the volume-neutral statement of "schedule adjustment shaves
    utilisation spikes".
    """
    scenario = standard_scenario(load_factor=load_factor, seed=seed)
    out = {}
    for name in schemes:
        result = run_scheme(name, scenario)
        p90 = metrics.link_utilization_percentiles(result, 90.0)
        xs, fractions = metrics.cdf_points(p90)
        ratios = []
        for index in range(result.loads.shape[1]):
            series = result.loads[:, index]
            if series.mean() > 1e-9:
                ratios.append(float(series.max() / series.mean()))
        out[name] = {"p90": xs.tolist(), "cdf": fractions.tolist(),
                     "median": float(np.median(p90)),
                     "delivered": result.total_delivered,
                     "median_peak_to_mean": float(np.median(ratios))
                     if ratios else 0.0}
    return out


# -- Figure 12 -----------------------------------------------------------------

def figure12(seed: int = 0,
             cost_factors=(0.5, 1.0, 1.5, 2.0)) -> dict:
    """Welfare (rel. OPT) as mean link cost varies, at load factor 1."""
    names = ("RegionOracle", "Pretium")
    welfare_rel: dict[str, list[float]] = {name: [] for name in names}
    for factor in cost_factors:
        scenario = standard_scenario(load_factor=1.0, seed=seed,
                                     cost_factor=factor)
        results = run_schemes(("OPT",) + names, scenario)
        opt_welfare = metrics.welfare(results["OPT"], scenario.cost_model)
        for name in names:
            welfare_rel[name].append(metrics.relative(
                metrics.welfare(results[name], scenario.cost_model),
                opt_welfare))
    return {"cost_factors": list(cost_factors), "welfare_rel": welfare_rel}


# -- Figures 13 / 14 (value distributions) --------------------------------------

@lru_cache(maxsize=4)
def value_distribution_sweep(seed: int = 0) -> dict:
    """Shared sweep behind Figures 13 and 14 at load factor 1 (cached).

    Normal and pareto value distributions at different mean/stddev
    ratios; welfare relative to OPT and profit relative to RegionOracle.
    """
    cases = [("normal", ratio, normal_with_ratio(ratio))
             for ratio in (1.0, 2.0, 4.0)] + \
            [("pareto", ratio, pareto_with_ratio(ratio))
             for ratio in (1.5, 3.0)]
    rows = []
    for family, ratio, dist in cases:
        scenario = standard_scenario(load_factor=1.0, values=dist, seed=seed)
        results = run_schemes(("OPT", "RegionOracle", "Pretium"), scenario)
        opt_welfare = metrics.welfare(results["OPT"], scenario.cost_model)
        region = results["RegionOracle"]
        pretium = results["Pretium"]
        rows.append({
            "family": family, "mu_over_sigma": ratio,
            "pretium_welfare_rel": metrics.relative(
                metrics.welfare(pretium, scenario.cost_model), opt_welfare),
            "region_welfare_rel": metrics.relative(
                metrics.welfare(region, scenario.cost_model), opt_welfare),
            "pretium_profit_rel_region": metrics.relative(
                metrics.profit(pretium, scenario.cost_model),
                metrics.profit(region, scenario.cost_model)),
        })
    return {"rows": rows}


def figure13(seed: int = 0) -> dict:
    """Welfare (rel. OPT) across value distributions."""
    return value_distribution_sweep(seed=seed)


def figure14(seed: int = 0) -> dict:
    """Profit (rel. RegionOracle) across value distributions."""
    return value_distribution_sweep(seed=seed)


# -- Table 4 -----------------------------------------------------------------

def table4(seed: int = 0, load_factor: float = 2.0) -> dict:
    """Median and 95th-percentile runtimes per Pretium module."""
    scenario = standard_scenario(load_factor=load_factor, seed=seed)
    result = simulate(PretiumController(), scenario.workload)
    return {"runtimes": result.extras["runtimes"].summary(),
            "n_requests": scenario.workload.n_requests,
            "n_steps": scenario.workload.n_steps}
