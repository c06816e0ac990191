"""Unit tests for solver retries and budgets."""

import numpy as np
import pytest

from repro.faults import (FaultInjector, RetryPolicy, resilient_solve,
                          use_injector)
from repro.lp import InfeasibleError, Model, SolverError, SolverTimeout
from repro.telemetry import MetricsRegistry, use_registry


def tiny_model() -> Model:
    m = Model(sense="min", name="tiny")
    x = m.add_variable("x", lb=0.0)
    m.add_constraint(x >= 2.0)
    m.set_objective(x.to_expr())
    return m


def test_retry_recovers_after_limited_fault():
    injector = FaultInjector.from_spec("sam:solver@5x1")
    with use_injector(injector), use_registry(MetricsRegistry()) as registry:
        solution = resilient_solve(tiny_model(), "sam", 5,
                                   policy=RetryPolicy(retries=2))
        assert solution.objective == pytest.approx(2.0)
        assert registry.counter("resilience.retries").value == 1
        assert registry.counter("resilience.retries.sam").value == 1
        assert "resilience.exhausted.sam" not in registry


def test_unlimited_fault_exhausts_retries():
    injector = FaultInjector.from_spec("sam:solver@5")
    with use_injector(injector), use_registry(MetricsRegistry()) as registry:
        with pytest.raises(SolverError):
            resilient_solve(tiny_model(), "sam", 5,
                            policy=RetryPolicy(retries=2))
        # first attempt + 2 retries, all injected
        assert len(injector.injections) == 3
        assert registry.counter("resilience.retries.sam").value == 2
        assert registry.counter("resilience.exhausted.sam").value == 1


def test_timeout_faults_are_retried_like_solver_faults():
    injector = FaultInjector.from_spec("pc:timeout@8x1")
    with use_injector(injector), use_registry(MetricsRegistry()) as registry:
        solution = resilient_solve(tiny_model(), "pc", 8,
                                   policy=RetryPolicy(retries=1))
        assert solution.objective == pytest.approx(2.0)
        assert registry.counter("resilience.retries.pc").value == 1


def test_infeasible_faults_are_never_retried():
    injector = FaultInjector.from_spec("sam:infeasible@5x3")
    with use_injector(injector), use_registry(MetricsRegistry()) as registry:
        with pytest.raises(InfeasibleError):
            resilient_solve(tiny_model(), "sam", 5,
                            policy=RetryPolicy(retries=5))
        # one attempt, zero retries: a deterministic LP stays infeasible
        assert len(injector.injections) == 1
        assert "resilience.retries.sam" not in registry


def test_genuinely_infeasible_model_propagates_untouched():
    m = Model(sense="min", name="impossible")
    x = m.add_variable("x", lb=0.0, ub=1.0)
    m.add_constraint(x >= 2.0)
    m.set_objective(x.to_expr())
    with use_injector(FaultInjector()), pytest.raises(InfeasibleError):
        resilient_solve(m, "sam", 0)


def hard_model(n=30) -> Model:
    """A dense random LP presolve cannot finish: the simplex must pivot."""
    rng = np.random.default_rng(7)
    m = Model(sense="max", name="hard")
    x = m.add_variables_array(n, "x", lb=0.0, ub=10.0)
    rows, cols = np.divmod(np.arange(n * n), n)
    m.add_constraints_coo(rows, x.start + cols, rng.uniform(0.1, 1.0, n * n),
                          "<=", rng.uniform(5.0, 10.0, n))
    m.set_objective_coo(x.indices, rng.uniform(0.5, 1.5, n))
    return m


def test_budget_exhaustion_maps_to_solver_timeout():
    # A real LP that needs many simplex iterations, allowed one: HiGHS
    # stops at its iteration limit.
    assert hard_model().solve().objective > 0.0
    with use_injector(FaultInjector()), \
            use_registry(MetricsRegistry()) as registry:
        with pytest.raises(SolverTimeout):
            resilient_solve(hard_model(), "pc", 0,
                            policy=RetryPolicy(retries=1, maxiter=1))
        # timeouts are transient by policy: the budget was retried once
        assert registry.counter("resilience.retries.pc").value == 1


def test_budgets_are_forwarded_to_the_backend(monkeypatch):
    seen = []

    import repro.lp.solver as solver_module
    real_run = solver_module._run_highs

    def spying_run(*args):
        seen.append(args[-1])  # the HighsOptions the solver is given
        return real_run(*args)

    monkeypatch.setattr("repro.lp.solver._run_highs", spying_run)
    policy = RetryPolicy(time_limit=30.0, maxiter=5000)
    with use_injector(FaultInjector()):
        resilient_solve(tiny_model(), "sam", 0, policy=policy)
    (options,) = seen
    assert options.time_limit == 30.0
    assert options.simplex_iteration_limit == 5000
    assert options.ipm_iteration_limit == 5000


def test_policy_from_config_reads_solver_knobs():
    from repro.core import PretiumConfig
    config = PretiumConfig(solver_retries=4, solver_time_limit=2.0,
                           solver_maxiter=123)
    policy = RetryPolicy.from_config(config)
    assert policy == RetryPolicy(retries=4, time_limit=2.0, maxiter=123)
