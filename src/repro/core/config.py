"""Pretium configuration knobs.

One dataclass gathers every tunable the paper mentions, with defaults
matching the paper's recommendations (§4): prices recomputed once per
window (a day), schedule adjustment every timestep, a short-term
multiplicative price bump on the last 20% of a link's capacity, and the
top-10% percentile-cost proxy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from numbers import Integral

from ..lp.topk import TOPK_ENCODINGS


def _default_solver_backend() -> str:
    """Backend default: the ``REPRO_SOLVER_BACKEND`` env var, else scipy.

    The env override is how CI legs force a backend across a whole test
    run without threading a knob through every construction site; scipy
    is the deterministic reference available in every environment.
    """
    return os.environ.get("REPRO_SOLVER_BACKEND", "scipy")


@dataclass
class PretiumConfig:
    """All Pretium knobs.

    Attributes
    ----------
    route_count:
        Admissible shortest paths per datacenter pair (|R_i|).
    routing:
        Routing policy deriving a request's admissible set from the
        k-shortest candidates: ``"kpaths"`` (the paper's static sets,
        default), ``"ecmp"`` (minimum-hop equal-cost subset) or
        ``"flowlet"`` (hash-pinned single path per request, re-hashed
        when a link fails).  See :data:`repro.network.ROUTING_POLICIES`.
    window:
        Price-window length ``W`` in timesteps; the price computer runs at
        the start of every window (the paper recommends daily updates with
        the window matching the demand period).
    lookback:
        Length ``T >= W`` of the period the price computer re-optimises in
        hindsight; extending past the reference window reduces boundary
        distortion (§4.3).
    initial_price:
        Per-(link, timestep) price before the first price computation.
    price_floor:
        Lower bound applied to computed prices: dual prices of uncongested
        links are zero, and a literal zero price would admit worthless
        traffic; the floor plays the role of a minimal handling fee.
    congestion_threshold:
        Fraction of a link's capacity sold at the base price; the
        remainder is sold at ``congestion_multiplier`` times the base
        price ("double the price of the last 20% of the link capacity",
        §4.1).
    congestion_multiplier:
        Price multiplier for the congested segment.
    topk_fraction:
        The percentile-cost proxy averages this fraction of the highest
        utilisation samples (top 10% in the paper).
    topk_encoding:
        ``"cvar"`` (compact, default) or ``"sorting"`` (the paper's
        Theorem 4.2 comparator network); both are exact at the optimum.
    percentile:
        Billing percentile for *realised* (true) costs.
    highpri_fraction:
        Fraction of every link's capacity set aside for non-TE
        ("high-pri") traffic; Pretium plans within the remainder (§3.1).
    sam_enabled:
        Disable for the Pretium-NoSAM ablation (Figure 11).
    menu_enabled:
        Disable for the Pretium-NoMenu ablation: requests become
        all-or-nothing (full demand at quoted price, or rejection).
    short_term_adjustment:
        Enables the congested-segment pricing above; turning it off sells
        the whole link at the base price.
    allow_best_effort:
        Whether users may ask for volume beyond the guarantee bound
        ``x̄`` (routed best-effort at the marginal price, §4.1).
    solver_backend:
        LP backend behind :func:`~repro.faults.resilience.resilient_solve`:
        ``"scipy"`` (default; stateless reference, always available),
        ``"highs"`` (persistent ``highspy`` session with warm starts,
        degrading to scipy when the bindings are absent) or ``"auto"``
        (highs when available).  Defaults to the ``REPRO_SOLVER_BACKEND``
        environment variable when set.
    solver_retries:
        Additional solve attempts after a transient backend failure
        (``SolverError``/``SolverTimeout``) before the module-level
        degradation fallback takes over (see :mod:`repro.faults`).
        Retries are immediate: re-solving the same LP in-process gains
        nothing from a wall-clock wait.
    solver_time_limit:
        Wall-clock budget per LP solve in seconds; exceeding it raises
        ``SolverTimeout`` (``None`` = unbounded).
    solver_maxiter:
        Simplex/IPM iteration budget per LP solve (``None`` = unbounded).
    """

    route_count: int = 3
    routing: str = "kpaths"
    window: int = 24
    lookback: int = 36
    initial_price: float = 0.1
    price_floor: float = 1e-3
    congestion_threshold: float = 0.8
    congestion_multiplier: float = 2.0
    topk_fraction: float = 0.1
    topk_encoding: str = "cvar"
    percentile: float = 95.0
    highpri_fraction: float = 0.0
    sam_enabled: bool = True
    menu_enabled: bool = True
    short_term_adjustment: bool = True
    allow_best_effort: bool = True
    solver_backend: str = field(default_factory=_default_solver_backend)
    solver_retries: int = 2
    solver_time_limit: float | None = None
    solver_maxiter: int | None = None

    @property
    def initial_metered_leveling(self) -> int:
        """Steps a metered link's initial cost gradient assumes a transfer
        can be levelled over.

        Before the first price computation there are no duals; the initial
        gradient is ``C_e / initial_metered_leveling``.  It assumes
        full-window levelling (the schedule adjuster does level aggregate
        load across a window, even though individual request windows are
        shorter).  After the first window the LP duals take over.
        """
        return max(1, self.window)

    def __post_init__(self) -> None:
        if isinstance(self.route_count, bool) \
                or not isinstance(self.route_count, Integral):
            raise ValueError(f"route_count must be an integer, got "
                             f"{self.route_count!r}")
        if self.route_count <= 0:
            raise ValueError("route_count must be positive")
        from ..network.paths import ROUTING_POLICIES
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing policy {self.routing!r}; "
                             f"expected one of {list(ROUTING_POLICIES)}")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.lookback < self.window:
            raise ValueError("lookback must be at least one window")
        for name in ("initial_price", "price_floor", "congestion_multiplier"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("initial_price", "price_floor"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0.0 < self.congestion_threshold <= 1.0:
            raise ValueError("congestion_threshold must be in (0, 1]")
        if self.congestion_multiplier < 1.0:
            raise ValueError("congestion_multiplier must be >= 1")
        if not 0.0 < self.topk_fraction <= 1.0:
            raise ValueError("topk_fraction must be in (0, 1]")
        if self.topk_encoding not in TOPK_ENCODINGS:
            raise ValueError(
                f"unknown topk_encoding {self.topk_encoding!r}")
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("percentile out of range")
        if not 0.0 <= self.highpri_fraction < 1.0:
            raise ValueError("highpri_fraction must be in [0, 1)")
        from ..lp.solver import SOLVER_BACKENDS
        if self.solver_backend not in SOLVER_BACKENDS:
            raise ValueError(
                f"unknown solver_backend {self.solver_backend!r}")
        if self.solver_retries < 0:
            raise ValueError("solver_retries must be >= 0")
        # inf is HiGHS's own "no limit"; NaN fails the comparison.
        if self.solver_time_limit is not None \
                and not self.solver_time_limit > 0:
            raise ValueError("solver_time_limit must be positive")
        if self.solver_maxiter is not None and self.solver_maxiter <= 0:
            raise ValueError("solver_maxiter must be positive")
