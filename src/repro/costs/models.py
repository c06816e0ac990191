"""Link cost accounting (paper §3.1 "Costs" and §6.1 "Link costs").

Two cost measures coexist in the reproduction, exactly as in the paper:

- the **true cost** bills each metered link ``C_e`` per unit of the 95th
  percentile of its utilisation in each billing window (a day); this is
  what every scheme's *realised* welfare is scored with;
- the **proxy cost** substitutes the top-10% mean ``z_e`` (§4.2); this is
  what the LPs optimise, because it linearises (they encode it themselves,
  see :mod:`repro.lp.grouping`).

Owned links have fixed installation costs that are excluded from the
welfare objective (§6.1), so they contribute zero here.
"""

from __future__ import annotations

import numpy as np

from ..network import Topology
from .percentile import DEFAULT_PERCENTILE, percentile_usage


class LinkCostModel:
    """Computes schedule operating costs on a topology.

    Parameters
    ----------
    topology:
        The WAN; metered links carry ``cost_per_unit``.
    billing_window:
        Billing-window length in timesteps (the paper uses 24 hours).
        Horizons that are not a multiple of the window are billed with a
        final partial window.
    percentile:
        The billing percentile (95 in the paper).
    """

    def __init__(self, topology: Topology, billing_window: int,
                 percentile: float = DEFAULT_PERCENTILE) -> None:
        if billing_window <= 0:
            raise ValueError("billing window must be positive")
        if not 0 < percentile <= 100:
            raise ValueError("percentile out of range")
        self.topology = topology
        self.billing_window = billing_window
        self.percentile = percentile
        self._metered = [(link.index, link.cost_per_unit)
                         for link in topology.metered_links()]

    def _windows(self, n_steps: int) -> list[slice]:
        """Billing-window slices covering ``0..n_steps``."""
        return [slice(start, min(start + self.billing_window, n_steps))
                for start in range(0, n_steps, self.billing_window)]

    def _validate(self, loads: np.ndarray) -> None:
        if loads.ndim != 2 or loads.shape[1] != self.topology.num_links:
            raise ValueError(
                f"loads must be (n_steps, {self.topology.num_links}), "
                f"got {loads.shape}")

    def true_cost(self, loads: np.ndarray) -> float:
        """95th-percentile billing of a realised schedule.

        ``loads[t, e]`` is the volume on link ``e`` at timestep ``t``.
        """
        self._validate(loads)
        total = 0.0
        for window in self._windows(loads.shape[0]):
            for index, unit_cost in self._metered:
                total += unit_cost * percentile_usage(
                    loads[window, index], self.percentile)
        return total

    def __repr__(self) -> str:
        return (f"LinkCostModel({len(self._metered)} metered links, "
                f"window={self.billing_window}, p={self.percentile:g})")
