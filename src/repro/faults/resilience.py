"""Retries and budgets around :func:`repro.lp.solver.solve_model`.

:func:`resilient_solve` is the single choke point through which SAM and
PC reach the LP backend.  It consults the process-wide
:class:`~repro.faults.injector.FaultInjector` before every attempt (so
injected faults exercise the very same code path as genuine backend
failures), applies the configured time/iteration budgets, and retries
transient failures (:class:`~repro.lp.errors.SolverError`, including
timeouts) immediately.  Infeasibility and unboundedness are
*never* retried: a deterministic LP that is infeasible stays infeasible,
and each module owns a semantic fallback for that case (SAM drops
guarantee rows; PC keeps stale prices; RA quotes from current prices).

Telemetry: every retry increments ``resilience.retries`` and
``resilience.retries.<module>``; an exhausted budget increments
``resilience.exhausted.<module>`` before the error escapes to the
module-level fallback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..lp.errors import LPError, SolverError
from ..lp.solver import Solution, solve_model
from ..telemetry import get_registry, get_tracer
from .injector import get_injector


class QuoteBudgetExceeded(LPError):
    """A quote's per-request latency budget ran out before it started.

    Raised by the admission interface when the service's quote deadline
    (see :class:`~repro.options.ServiceOptions`) is already spent by the
    time the request is dequeued.  Subclassing :class:`LPError` routes it
    through the exact degradation path a quoting fault takes: the
    controller catches it and serves the conservative current-price menu
    instead of blocking the service thread on a full greedy quote.
    """


@dataclass(frozen=True)
class DeadlineBudget:
    """A wall-clock budget for one unit of latency-bounded work.

    ``started`` is a :func:`time.perf_counter` timestamp; ``budget`` is
    in seconds.  The admission service hands the ``remaining`` method to
    the quoting layer, which checks it before starting expensive work —
    so a request that waited out its budget in the queue degrades
    immediately instead of adding a full quote on top of the overrun.
    """

    started: float
    budget: float

    def remaining(self) -> float:
        """Seconds left before the budget is exhausted (may be < 0)."""
        return self.budget - (time.perf_counter() - self.started)

    @property
    def exceeded(self) -> bool:
        return self.remaining() <= 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/budget knobs for one module's solver calls.

    ``retries`` is the number of *additional* attempts after the first.
    Retries are immediate: an in-process re-solve of the same LP does
    not benefit from a wall-clock wait.
    """

    retries: int = 2
    time_limit: float | None = None
    maxiter: int | None = None

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        """Derive the policy from a :class:`~repro.core.config.PretiumConfig`."""
        return cls(retries=config.solver_retries,
                   time_limit=config.solver_time_limit,
                   maxiter=config.solver_maxiter)


def resilient_solve(model, module: str, step: int,
                    policy: RetryPolicy | None = None,
                    session=None) -> Solution:
    """Solve ``model`` with injection, budgets and retries.

    Parameters
    ----------
    module, step:
        The (module, timestep) injection point this solve belongs to;
        the process-wide injector (:func:`~repro.faults.get_injector`)
        is checked there before every attempt.
    policy:
        Retry/budget policy; defaults to :class:`RetryPolicy()`.
    session:
        Optional persistent :class:`~repro.lp.solver.SolverSession` to
        solve through instead of the stateless :func:`solve_model`.
        Injection, budgets and retries are identical either way — the
        injector is consulted *before* every attempt, so a session never
        bypasses a scheduled fault.

    Raises whatever the final attempt raised once retries are exhausted;
    :class:`~repro.lp.errors.InfeasibleError` propagates immediately.
    """
    policy = policy or RetryPolicy()
    registry = get_registry()
    attempt = 0
    while True:
        try:
            get_injector().check(module, step)
            if session is not None:
                return session.solve(model, time_limit=policy.time_limit,
                                     maxiter=policy.maxiter)
            return solve_model(model, time_limit=policy.time_limit,
                               maxiter=policy.maxiter)
        except SolverError as exc:
            if attempt >= policy.retries:
                registry.counter(f"resilience.exhausted.{module}").inc()
                raise
            attempt += 1
            registry.counter("resilience.retries").inc()
            registry.counter(f"resilience.retries.{module}").inc()
            get_tracer().emit({"type": "retry", "module": module,
                               "step": step, "attempt": attempt,
                               "error": type(exc).__name__})
