"""Fault injection and graceful degradation (see DESIGN.md §"Failure
model & degradation semantics").

Three pieces:

- :mod:`~repro.faults.injector` — a deterministic, seeded
  :class:`FaultInjector` that raises LP exceptions at chosen
  (module, timestep) points, configured from a compact spec string
  (``RunOptions.faults`` / ``run --faults``) and installed process-wide
  by :func:`repro.options.run_context`;
- :mod:`~repro.faults.links` — a :class:`LinkKillSchedule` of
  scheduled link failures (``RunOptions.link_kills`` /
  ``run --link-kills``), applied by the engine through
  ``NetworkState.fail_link`` so dynamic routing policies re-route and
  re-hash exactly as they would on a real outage;
- :mod:`~repro.faults.resilience` — :func:`resilient_solve`, the
  retry + budget wrapper every SAM/PC solver call goes
  through, and the :class:`RetryPolicy` derived from the config.

The module-level fallbacks themselves live with their modules: SAM
replays the last installed feasible plan, PC retains stale prices, RA
quotes straight from current prices (:meth:`RequestAdmission.
quote_degraded`).  The simulation engine additionally catches LP errors
at every module boundary so schemes without a resilience layer still
complete (``RunResult.extras["failures"]``).
"""

from .injector import (KINDS, MODULES, FaultInjector, FaultRule,
                       FaultSpecError, get_injector, parse_fault_spec,
                       set_injector, use_injector)
from .links import LinkKill, LinkKillSchedule, parse_link_kills
from .resilience import (DeadlineBudget, QuoteBudgetExceeded, RetryPolicy,
                         resilient_solve)

__all__ = [
    "DeadlineBudget", "FaultInjector", "FaultRule", "FaultSpecError", "KINDS",
    "LinkKill", "LinkKillSchedule", "MODULES", "QuoteBudgetExceeded",
    "RetryPolicy", "get_injector", "parse_fault_spec", "parse_link_kills",
    "resilient_solve", "set_injector", "use_injector",
]
