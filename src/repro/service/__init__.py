"""Online admission service: live arrivals over the batch machinery.

Layering (see DESIGN.md §"Online admission service"):

- :mod:`repro.service.cache` — warm per-(src, dst) menu caches with
  link-version invalidation;
- :mod:`repro.service.engine` — the synchronous deterministic core,
  bit-identical to batch :func:`~repro.sim.engine.simulate` on replayed
  arrival streams;
- :mod:`repro.service.service` — the front door on one owner thread:
  thread-safe submission, micro-batching, backpressure, deadline budgets;
- :mod:`repro.service.loadgen` — synthetic open-loop load generation.
"""

from .cache import MenuCache
from .engine import (AdmissionDecision, AdmissionEngine, QuoteSnapshot,
                     ServiceStateError)
from .loadgen import LoadReport, generate_load
from .service import AdmissionService, ServiceClosed, ServiceOverloaded

__all__ = [
    "AdmissionDecision",
    "AdmissionEngine",
    "AdmissionService",
    "LoadReport",
    "MenuCache",
    "QuoteSnapshot",
    "ServiceClosed",
    "ServiceOverloaded",
    "ServiceStateError",
    "generate_load",
]
