"""Figure 2: the 4-node pricing example.

The paper illustrates why per-(link, timestep) prices matter with four
requests on a 4-node network (all links capacity 2, two timesteps):

====  =====  =====  ======  ========
req   route  value  demand  window
====  =====  =====  ======  ========
R1    A->B   8      2       step 0
R2    A->B   4      2       steps 0-1
R3    A->D   4      2       step 0
R4    C->D   1      4       steps 0-1
====  =====  =====  ========  ======

Schemes compared (each with its price parameters chosen *optimally* for
that scheme class):

- **no-price** — throughput maximisation; being value-blind we report the
  *worst-welfare* throughput-optimal schedule (the paper's point is that
  a value-blind scheduler may pick any of them);
- **fixed** — one price per unit anywhere in the network;
- **per-link** — one fixed price per link, constant over time;
- **per-time** — one network-wide price per timestep;
- **pretium** — a price per (link, timestep), which supports the full
  welfare-optimal schedule of 34.

Each pricing scheme admits the requests whose value covers the (cheapest
admissible route's) price and schedules admitted requests by throughput,
again with worst-case tie-break; the reported welfare is total value
carried (link costs are zero in the example).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ..core.request import ByteRequest
from ..lp import Model
from ..lp.grouping import add_schedule, route_incidence
from ..network import Topology, figure2_network
from ..network.paths import RouteShape

#: The example's requests: (rid, src, dst, value, demand, start, deadline).
EXAMPLE_REQUESTS = (
    (1, "A", "B", 8.0, 2.0, 0, 0),
    (2, "A", "B", 4.0, 2.0, 0, 1),
    (3, "A", "D", 4.0, 2.0, 0, 0),
    (4, "C", "D", 1.0, 4.0, 0, 1),
)

#: Route of each request as link keys (single admissible route each).
ROUTES = {
    1: (("A", "B"),),
    2: (("A", "B"),),
    3: (("A", "C"), ("C", "D")),
    4: (("C", "D"),),
}

N_STEPS = 2

#: Candidate prices — the request values plus zero bound the search.
PRICE_GRID = (0.0, 1.0, 2.0, 4.0, 8.0, 9.0)


@dataclass
class ExampleRow:
    """One scheme's outcome in the Figure 2 table."""

    scheme: str
    prices: str
    units: dict[int, float]
    welfare: float


def requests() -> list[ByteRequest]:
    """The example's requests as first-class objects."""
    return [ByteRequest(rid, src, dst, demand, 0, start, deadline, value)
            for rid, src, dst, value, demand, start, deadline
            in EXAMPLE_REQUESTS]


def _fair_share_step(active: list[int], remaining: dict[int, float],
                     residual: dict[tuple[str, str], float]
                     ) -> dict[int, float]:
    """Max-min fair rates for one timestep (progressive filling).

    Price-only schemes have no TE coordination: every admitted request
    transmits as soon as it can afford to, and contending requests share
    each link max-min fairly.  This is what produces the paper's
    "R1 and R2 share link (A, B)" outcomes.
    """
    rates = {rid: 0.0 for rid in active}
    unfrozen = set(active)
    residual = dict(residual)
    while unfrozen:
        limits = []
        for key, capacity in residual.items():
            users = [rid for rid in unfrozen if key in ROUTES[rid]]
            if users:
                limits.append(capacity / len(users))
        demand_limits = [remaining[rid] - rates[rid] for rid in unfrozen]
        delta = min(limits + demand_limits)
        if delta <= 1e-12:
            delta = 0.0
        for key in list(residual):
            users = [rid for rid in unfrozen if key in ROUTES[rid]]
            residual[key] -= delta * len(users)
        for rid in list(unfrozen):
            rates[rid] += delta
        # freeze demand-satisfied requests and users of saturated links
        for rid in list(unfrozen):
            if rates[rid] >= remaining[rid] - 1e-12:
                unfrozen.discard(rid)
        for key, capacity in residual.items():
            if capacity <= 1e-12:
                for rid in list(unfrozen):
                    if key in ROUTES[rid]:
                        unfrozen.discard(rid)
        if delta == 0.0:
            break
    return rates


def _schedule(admitted: dict[int, float],
              allowed: dict[int, set[int]] | None = None
              ) -> tuple[dict[int, float], float]:
    """Greedy fair-share transmission of admitted demand.

    Each timestep, every admitted request with remaining demand (and an
    affordable price at that step, per ``allowed``) transmits at its
    max-min fair share.  Returns (units per request, total value carried).
    """
    topology = figure2_network()
    remaining = {rid: admitted.get(rid, 0.0) for rid, *_ in EXAMPLE_REQUESTS}
    units = {rid: 0.0 for rid, *_ in EXAMPLE_REQUESTS}
    for t in range(N_STEPS):
        residual = {link.key: link.capacity for link in topology.links}
        active = []
        for rid, _s, _d, _v, _dem, start, deadline in EXAMPLE_REQUESTS:
            in_window = start <= t <= deadline
            affordable = allowed is None or t in allowed.get(rid, set())
            if in_window and affordable and remaining[rid] > 1e-12:
                active.append(rid)
        if not active:
            continue
        rates = _fair_share_step(active, remaining, residual)
        for rid, rate in rates.items():
            units[rid] += rate
            remaining[rid] -= rate
    value = sum(spec[3] * units[spec[0]] for spec in EXAMPLE_REQUESTS)
    return units, value


def _admit_by_route_price(route_price: dict[int, float]) -> dict[int, float]:
    """Caps: full demand if the request's value covers its route price."""
    return {rid: demand if value + 1e-9 >= route_price[rid] else 0.0
            for rid, _s, _d, value, demand, _a, _b in EXAMPLE_REQUESTS}


def no_price_row() -> ExampleRow:
    admitted = {rid: demand
                for rid, _s, _d, _v, demand, _a, _b in EXAMPLE_REQUESTS}
    units, welfare = _schedule(admitted)
    return ExampleRow("no-price", "-", units, welfare)


def fixed_price_row() -> ExampleRow:
    best = None
    for price in PRICE_GRID:
        units, welfare = _schedule(_admit_by_route_price(
            {rid: price for rid, *_ in EXAMPLE_REQUESTS}))
        if best is None or welfare > best.welfare:
            best = ExampleRow("fixed", f"p={price:g}", units, welfare)
    return best


def per_link_price_row() -> ExampleRow:
    best = None
    links = (("A", "B"), ("A", "C"), ("C", "D"))
    for combo in product(PRICE_GRID, repeat=3):
        link_price = dict(zip(links, combo))
        route_price = {rid: sum(link_price[key] for key in ROUTES[rid])
                       for rid, *_ in EXAMPLE_REQUESTS}
        units, welfare = _schedule(_admit_by_route_price(route_price))
        if best is None or welfare > best.welfare:
            label = ",".join(f"{u}{v}={p:g}" for (u, v), p
                             in link_price.items())
            best = ExampleRow("per-link", label, units, welfare)
    return best


def per_time_price_row() -> ExampleRow:
    """One network-wide unit price per timestep; users send when it is
    affordable to them."""
    best = None
    for combo in product(PRICE_GRID, repeat=N_STEPS):
        admitted = {}
        allowed: dict[int, set[int]] = {}
        for rid, _s, _d, value, demand, start, deadline in EXAMPLE_REQUESTS:
            steps = {t for t in range(start, deadline + 1)
                     if combo[t] <= value + 1e-9}
            allowed[rid] = steps
            admitted[rid] = demand if steps else 0.0
        units, welfare = _schedule(admitted, allowed)
        if best is None or welfare > best.welfare:
            best = ExampleRow("per-time",
                              ",".join(f"t{t}={p:g}"
                                       for t, p in enumerate(combo)),
                              units, welfare)
    return best


def pretium_row() -> ExampleRow:
    """Per-(link, timestep) prices support the welfare-optimal schedule."""
    topology = figure2_network()
    capacity = np.array([link.capacity for link in topology.links])
    # The schedule LP over the example: one flow per (request, step of
    # its window) on the request's one route, in request order.
    incidences, counts = [], []
    for rid, _s, _d, _v, _dem, start, deadline in EXAMPLE_REQUESTS:
        steps = np.arange(start, deadline + 1)
        route = tuple(topology.link_between(*key).index
                      for key in ROUTES[rid])
        incidences.append(route_incidence(RouteShape((route,)), steps))
        counts.append(steps.size)
    model = Model(sense="max", name="fig2-opt")
    lp = add_schedule(
        model, incidences, counts,
        [demand for *_, demand, _a, _b in EXAMPLE_REQUESTS],
        np.broadcast_to(capacity, (N_STEPS, capacity.size)))
    model.set_objective_coo(lp.flows, np.repeat(
        [value for _r, _s, _d, value, *_ in EXAMPLE_REQUESTS], counts))
    solution = model.solve()
    units = {rid: sum(solution.x[start:start + count].tolist())
             for (rid, *_), start, count
             in zip(EXAMPLE_REQUESTS, lp.starts.tolist(), counts)}
    return ExampleRow("pretium", "per (link,time)", units,
                      solution.objective)


def figure2_table() -> list[ExampleRow]:
    """All rows of the example, in the paper's order."""
    return [no_price_row(), fixed_price_row(), per_link_price_row(),
            per_time_price_row(), pretium_row()]
