"""Reproduction of *Pretium* (SIGCOMM 2016).

Pretium combines dynamic per-(link, timestep) pricing with traffic
engineering for inter-datacenter transfers.  The top-level subpackages are:

- :mod:`repro.lp` -- LP modelling layer over HiGHS, including the paper's
  sum-of-top-k percentile-cost encodings (S4.2).
- :mod:`repro.network` -- WAN topology model and synthetic generators.
- :mod:`repro.traffic` -- traffic-matrix time series and request synthesis
  (the paper's trace-driven workload methodology, S6.1).
- :mod:`repro.costs` -- 95th-percentile and top-k link cost models.
- :mod:`repro.core` -- Pretium itself: request admission (S4.1), schedule
  adjustment (S4.2), price computation (S4.3), user behaviour (S5).
- :mod:`repro.sim` -- the online discrete-time simulator and metrics.
- :mod:`repro.baselines` -- OPT, NoPrices, RegionOracle, PeakOracle,
  VCGLike and the Pretium ablations (S6.1).
- :mod:`repro.experiments` -- scenario definitions and one generator per
  figure/table in the paper's evaluation.
- :mod:`repro.telemetry` -- structured tracing, metrics and solver
  instrumentation (spans, counters, streaming histograms, JSONL traces).
- :mod:`repro.service` -- the online admission service: a long-lived
  thread streaming live arrivals through the same RA/SAM/PC
  machinery, with warm menu caches, micro-batching and backpressure.
- :mod:`repro.api` -- the stable high-level facade: :func:`repro.run`,
  :func:`repro.sweep`, :func:`repro.campaign`, :func:`repro.audit` and
  :func:`repro.serve` with typed results, plus
  :class:`repro.RunOptions` / :class:`repro.ServiceOptions` for every
  knob.
"""

from .api import (AuditReport, CampaignResult, CampaignSpec, RunOptions,
                  RunReport, ScenarioSpec, SchemeSpec, ServiceHandle,
                  ServiceOptions, SweepGrid, SweepResult, audit, campaign,
                  run, serve, sweep)

__all__ = [
    "AuditReport", "CampaignResult", "CampaignSpec", "RunOptions",
    "RunReport", "ScenarioSpec", "SchemeSpec", "ServiceHandle",
    "ServiceOptions", "SweepGrid", "SweepResult", "api", "audit",
    "campaign", "run", "serve", "sweep",
]

__version__ = "1.0.0"
