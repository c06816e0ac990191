"""The one layout of every schedule LP.

SAM, PC, the offline baselines, VCGLike's per-step auction and Figure
2's Pretium row solve one LP shape, and :func:`add_schedule` alone lays
it out: a block of flow variables per contract under a demand row
(:func:`route_incidence`, :func:`add_demand_blocks`), one capacity row
per touched (link, timestep) pair (:class:`PairGroups`), with SAM's
smoothing row after each when asked, and the percentile-cost proxy per
(metered link, billing window) (:func:`add_percentile_costs`).  The
order decides which degenerate vertex HiGHS returns; callers differ
only in data, and each keeps just its gathering of contracts, its
objective and its read-back.  Each piece lays out *all* its contracts /
pairs / windows with cumulative offsets and a constant number of
:class:`~repro.lp.model.Model` calls, numbering variables and rows
exactly as the term-by-term reference builders
(``tests/reference/expr_builders.py``) do — whose ``dict.setdefault``
insertion order :class:`PairGroups` reproduces with numpy — so both
assemble the identical matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import EQ, GE, LE, SENSE_CODES, ConstraintBlock, Model
from .topk import topk_template


_NONE = np.zeros(0, dtype=np.int64)
_NONE.flags.writeable = False


def _concat(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else _NONE


def _starts(counts: np.ndarray) -> np.ndarray:
    """Exclusive running sum: where each of ``counts`` consecutive runs
    begins."""
    return np.cumsum(counts) - counts


def route_incidence(shape, steps: np.ndarray):
    """(link, timestep, variable) per incidence of a routes x steps grid.

    ``shape`` is the routes' :class:`~repro.network.paths.RouteShape`.
    The grid is route-major — variable ``r * len(steps) + j`` is the flow
    on route ``r`` at ``steps[j]`` — and each variable appears once per
    link of its route.  Variables are relative to the grid's first.  The
    links and variables are the shape's shared read-only template.
    """
    links, positions, variables = shape.incidence(steps.size)
    return links, steps[positions], variables


def add_demand_blocks(model: Model, counts, caps, ub=None, need=None,
                      soft=None):
    """Flow variables and demand rows of every contract, in one go.

    Contract ``i`` gets ``counts[i]`` flow variables in ``[0, ub[i]]``
    (``ub=None``: unbounded) under ``sum(flows_i) <= caps[i]``.  Where
    ``need[i] > 0`` a guarantee row ``sum(flows_i) >= need[i]`` follows
    the demand row directly; if ``soft[i]`` too, a slack variable
    ``>= 0`` follows the contract's flows and joins that row.

    Returns ``(starts, flows, slacks)``: the first flow variable of each
    contract, every flow variable, and each contract's slack variable
    (-1 where it has none).
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    need = np.zeros(n) if need is None else np.asarray(need)
    guaranteed = need > 0
    slacked = guaranteed & (False if soft is None else np.asarray(soft))
    widths = counts + slacked
    starts = model.num_variables + _starts(widths)
    slacks = np.where(slacked, starts + counts, -1)
    slack_at = slacks[slacked] - model.num_variables
    ubs = None
    if ub is not None:
        ubs = np.repeat(np.asarray(ub, dtype=np.float64), widths)
        ubs[slack_at] = np.inf
    flows = np.delete(model.add_variables_array(
        int(widths.sum()), "x", lb=0.0, ub=ubs).indices, slack_at)

    demand_row = _starts(1 + guaranteed)
    owner = np.repeat(np.arange(n), counts)
    held = guaranteed[owner]
    rows = np.concatenate([demand_row[owner], demand_row[owner[held]] + 1,
                           demand_row[slacked] + 1])
    codes = np.full(n + int(guaranteed.sum()), SENSE_CODES[LE], dtype=np.int8)
    rhs = np.empty(codes.size)
    rhs[demand_row] = caps
    codes[demand_row[guaranteed] + 1] = SENSE_CODES[GE]
    rhs[demand_row[guaranteed] + 1] = need[guaranteed]
    model.add_constraints_coo(
        rows, np.concatenate([flows, flows[held], slacks[slacked]]),
        np.ones(rows.size), codes, rhs, name="demand")
    return starts, flows, slacks


class PairGroups:
    """Entries grouped by (link, step), ranks in first-encounter order.

    Parameters are parallel per-entry arrays.  ``n_steps`` bounds the step
    values so the pair can be packed into one integer key.

    Attributes
    ----------
    n:
        Number of distinct (link, step) pairs.
    rows:
        Per-entry group rank — usable directly as COO row indices.
    values:
        The entry values in original order (aligned with ``rows``).
    links, steps:
        Per-rank link index and timestep, in first-encounter order.
    """

    __slots__ = ("n", "rows", "values", "links", "steps", "_sorted_values",
                 "_offsets", "_keys", "_key_rank", "_n_steps")

    def __init__(self, links: np.ndarray, steps: np.ndarray,
                 values: np.ndarray, n_steps: int) -> None:
        links = np.asarray(links, dtype=np.int64)
        steps = np.asarray(steps, dtype=np.int64)
        values = np.asarray(values)
        keys = links * int(n_steps) + steps
        uniq, first_pos, inverse = np.unique(
            keys, return_index=True, return_inverse=True)
        order = np.argsort(first_pos, kind="stable")
        rank_of_uniq = np.empty(uniq.size, dtype=np.int64)
        rank_of_uniq[order] = np.arange(uniq.size)
        self.n = int(uniq.size)
        self.rows = rank_of_uniq[inverse]
        self.values = values
        self.links = links[first_pos[order]]
        self.steps = steps[first_pos[order]]
        # Per-group value slices, preserving original entry order.
        sort_idx = np.argsort(self.rows, kind="stable")
        self._sorted_values = values[sort_idx]
        counts = np.bincount(self.rows, minlength=self.n)
        self._offsets = np.concatenate(([0], np.cumsum(counts)))
        self._keys = uniq
        self._key_rank = rank_of_uniq
        self._n_steps = int(n_steps)

    def ranks_of(self, links: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Group rank of each (link, step) pair; -1 where absent."""
        keys = links * self._n_steps + steps
        if not self.n:
            return np.full(keys.shape, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self._keys, keys), self.n - 1)
        return np.where(self._keys[at] == keys, self._key_rank[at], -1)

    def members_of(self, ranks: np.ndarray):
        """Values of the entries in each of ``ranks``' groups, group after
        group (original entry order within a group), and how many each
        group contributed; rank -1 contributes none."""
        present = ranks >= 0
        counts = np.where(present, self._offsets[ranks + 1]
                          - self._offsets[ranks], 0)
        first = np.repeat(self._offsets[ranks] - _starts(counts), counts)
        return self._sorted_values[first + np.arange(first.size)], counts


class PercentileCosts(NamedTuple):
    """What :func:`add_percentile_costs` laid out, one entry per (metered
    link, billing window) in metered-link then window order."""

    bounds: np.ndarray     # the top-k bound variable S
    weights: np.ndarray    # its objective coefficient, -(C_e / k)
    links: np.ndarray      # link index
    starts: np.ndarray     # first timestep of the window
    lengths: np.ndarray    # timesteps in the window
    load_rows: np.ndarray  # global index of the first load-coupling row


_NO_COSTS = PercentileCosts(_NONE, np.zeros(0), _NONE, _NONE, _NONE, _NONE)


def add_percentile_costs(model: Model, groups: PairGroups, metered_links,
                         billing: int, n_steps: int, topk_fraction: float,
                         encoding: str, now: int = 0, realized=None,
                         couple_idle: bool = False) -> PercentileCosts:
    """The percentile-cost proxy of §4.2 over every touched window.

    For each metered link with flow variables in some billing window:
    one load variable per window step, a coupling row ``load == sum of
    the step's flows``, and the top-k encoding over the loads, charged
    ``C_e / k`` per unit of its bound.  Steps before ``now`` are pinned
    to ``realized[t, link]``.  A step without flows is pinned to zero —
    or, with ``couple_idle``, left free under an (empty) coupling row,
    so that every step of the window has a row whose dual can be read.
    """
    links = list(metered_links)
    metered = np.array([link.index for link in links], dtype=np.int64)
    position = np.full(max(metered.max(initial=-1),
                           groups.links.max(initial=-1)) + 1, -1)
    position[metered] = np.arange(metered.size)
    touched = position[groups.links] >= 0
    if not touched.any():
        return _NO_COSTS
    per_link = -(-n_steps // billing)
    w_position, w_number = np.divmod(np.unique(
        position[groups.links[touched]] * per_link
        + groups.steps[touched] // billing), per_link)
    w_link = metered[w_position]
    w_start = w_number * billing
    w_length = np.minimum(w_start + billing, n_steps) - w_start
    n_windows = w_link.size

    # Every (window, step) cell: bounds of its load variable, and whether
    # it gets a coupling row.
    window = np.repeat(np.arange(n_windows), w_length)
    offset = np.arange(window.size) - _starts(w_length)[window]
    step = w_start[window] + offset
    ranks = groups.ranks_of(w_link[window], step)
    lbs = np.zeros(window.size)
    if couple_idle:
        coupled = np.ones(window.size, dtype=bool)
        ubs = np.full(window.size, np.inf)
    else:
        past = step < now
        if past.any():
            lbs[past] = realized[step[past], w_link[window[past]]]
        ubs = lbs.copy()
        coupled = (ranks >= 0) & ~past
        ubs[coupled] = np.inf
    n_coupled = np.bincount(window[coupled], minlength=n_windows)

    # Windows of one length share k, hence one top-k template.
    k_of = {length: max(1, int(round(topk_fraction * length)))
            for length in np.unique(w_length).tolist()}
    templates = {length: topk_template(length, k, encoding)
                 for length, k in k_of.items()}
    lengths = w_length.tolist()
    widths = w_length + [templates[length].n_aux for length in lengths]
    heights = n_coupled + [templates[length].n_rows for length in lengths]
    var_start = model.num_variables + _starts(widths)
    row_start = _starts(heights)

    all_lb = np.zeros(int(widths.sum()))
    all_ub = np.full(all_lb.size, np.inf)
    load = var_start[window] + offset
    all_lb[load - model.num_variables] = lbs
    all_ub[load - model.num_variables] = ubs
    model.add_variables_array(all_lb.size, "cost", lb=all_lb, ub=all_ub)

    cell = np.flatnonzero(coupled)
    cell_row = row_start[window[cell]] + np.arange(cell.size) \
        - _starts(n_coupled)[window[cell]]
    members, counts = groups.members_of(ranks[cell])
    rows = [cell_row, np.repeat(cell_row, counts)]
    cols = [load[cell], members]
    vals = [np.ones(cell.size), -np.ones(members.size)]
    codes = np.full(int(heights.sum()), SENSE_CODES[EQ], dtype=np.int8)
    bounds = np.empty(n_windows, dtype=np.int64)
    for length, template in templates.items():
        same = np.flatnonzero(w_length == length)
        first_row = (row_start[same] + n_coupled[same])[:, None]
        rows.append((first_row + template.rows).ravel())
        cols.append((var_start[same][:, None] + template.cols).ravel())
        vals.append(np.tile(template.vals, same.size))
        codes[(first_row + np.arange(template.n_rows)).ravel()] = \
            np.tile(template.codes, same.size)
        bounds[same] = var_start[same] + template.bound
    block = model.add_constraints_coo(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        codes, np.zeros(codes.size), name="cost")
    unit_cost = np.array([link.cost_per_unit for link in links])
    k = np.array([k_of[length] for length in lengths])
    return PercentileCosts(bounds, -(unit_cost[w_position] / k), w_link,
                           w_start, w_length, block.start + row_start)


class ScheduleLP(NamedTuple):
    """What :func:`add_schedule` laid out."""

    starts: np.ndarray    # first flow variable of each contract
    flows: np.ndarray     # every flow variable, contract after contract
    slacks: np.ndarray    # each contract's slack variable, -1 where none
    groups: PairGroups    # the touched (link, timestep) pairs
    capacity: ConstraintBlock | None  # their rows; None without pairs
    over: np.ndarray      # each pair's smoothing variable (or none)
    costs: PercentileCosts


def add_schedule(model: Model, incidences, counts, caps,
                 capacity: np.ndarray, ub=None, need=None, soft=None,
                 threshold: float | None = None, metered_links=(),
                 **cost_options) -> ScheduleLP:
    """Every variable and row of a schedule LP; the objective is the
    caller's.

    Contract ``i`` has ``counts[i]`` flows, ``incidences[i]`` their
    :func:`route_incidence`; ``caps``, ``ub``, ``need`` and ``soft`` are
    as in :func:`add_demand_blocks`.  ``capacity[t, e]`` is link ``e``'s
    capacity at step ``t``.  Each touched (link, step) pair gets the row
    ``flows <= capacity``; with a ``threshold``, SAM's smoothing row
    ``flows - over <= threshold * capacity`` follows it (``over >= 0``,
    one per pair).  The percentile costs of ``metered_links`` come last
    (:func:`add_percentile_costs`, given ``cost_options``).
    """
    starts, flows, slacks = add_demand_blocks(model, counts, caps, ub=ub,
                                              need=need, soft=soft)
    n_steps = capacity.shape[0]
    links, steps, variables = zip(*incidences) if incidences else ([],) * 3
    groups = PairGroups(_concat(links), _concat(steps), _concat(variables)
                        + np.repeat(starts, [v.size for v in variables]),
                        n_steps)
    n, entries = groups.n, groups.rows.size
    bound = capacity[groups.steps, groups.links].astype(float)
    block, over = None, _NONE
    if threshold is not None and n:
        over = model.add_variables_array(n, "over", lb=0.0).indices
        rhs = np.empty(2 * n)
        rhs[0::2] = bound
        rhs[1::2] = -(threshold * bound)
        block = model.add_constraints_coo(
            np.concatenate([2 * groups.rows, 2 * groups.rows + 1,
                            2 * np.arange(n) + 1]),
            np.concatenate([groups.values, groups.values, over]),
            np.concatenate([np.ones(entries), -np.ones(entries),
                            np.ones(n)]),
            np.tile(np.array([SENSE_CODES[LE], SENSE_CODES[GE]],
                             dtype=np.int8), n), rhs, name="cap")
    elif n:
        block = model.add_constraints_coo(groups.rows, groups.values,
                                          np.ones(entries), LE, bound,
                                          name="cap")
    costs = add_percentile_costs(model, groups, metered_links,
                                 n_steps=n_steps, **cost_options) \
        if len(metered_links) else _NO_COSTS
    return ScheduleLP(starts, flows, slacks, groups, block, over, costs)
