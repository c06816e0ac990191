"""Tests for persistent solver sessions and backend selection.

The session contract: a :class:`SolverSession` is indistinguishable
from :func:`solve_model` except in wall-clock — same primal values,
objective, duals and error taxonomy.  The HiGHS leg runs only where
``highspy`` is installed (CI's dedicated matrix entry); everywhere else
the graceful-fallback paths are what gets exercised.
"""

import numpy as np
import pytest

from repro.faults import (FaultInjector, RetryPolicy, resilient_solve,
                          use_injector)
from repro.lp import (HIGHSPY_AVAILABLE, InfeasibleError, Model,
                      ScipySession, SolverError, UnboundedError,
                      session_for, solve_model)
from repro.lp.solver import HighsSession
from repro.telemetry import MetricsRegistry, use_registry


def capacity_model() -> Model:
    """A tiny max model with a binding capacity row (known duals)."""
    m = Model(sense="max", name="cap")
    x = m.add_variable("x", lb=0.0, ub=4.0)
    y = m.add_variable("y", lb=0.0, ub=3.0)
    m.add_constraint(x + y <= 5.0, name="cap")
    m.set_objective(2.0 * x + y + 1.0)
    return m


def infeasible_model() -> Model:
    m = Model(sense="max", name="bad")
    x = m.add_variable("x", lb=0.0, ub=1.0)
    m.add_constraint(x >= 2.0)
    m.set_objective(x.to_expr())
    return m


def _assert_solutions_equal(a, b, model_a, model_b):
    assert a.objective == pytest.approx(b.objective)
    np.testing.assert_allclose(a.x, b.x)
    for i in range(model_a.num_constraints):
        assert a.dual(i) == pytest.approx(b.dual(i))


# -- ScipySession: the stateless reference ---------------------------------

def test_scipy_session_matches_solve_model():
    with use_registry():
        reference = solve_model(capacity_model())
        with ScipySession() as session:
            solution = session.solve(capacity_model())
    _assert_solutions_equal(solution, reference,
                            capacity_model(), capacity_model())


def test_scipy_session_counts_cold_starts():
    with use_registry(MetricsRegistry()) as registry:
        session = ScipySession()
        session.solve(capacity_model())
        session.solve(capacity_model())
        assert registry.counter("lp.session.cold_starts").value == 2
        assert "lp.session.warm_starts" not in registry


def test_scipy_session_error_taxonomy():
    with use_registry():
        with pytest.raises(InfeasibleError):
            ScipySession().solve(infeasible_model())


# -- backend selection ------------------------------------------------------

def test_session_for_default_is_scipy():
    with use_registry():
        assert isinstance(session_for(None), ScipySession)
        assert isinstance(session_for("scipy"), ScipySession)


def test_session_for_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown solver_backend"):
        session_for("glpk")


@pytest.mark.skipif(HIGHSPY_AVAILABLE, reason="highspy installed")
def test_session_for_highs_degrades_without_highspy():
    with use_registry(MetricsRegistry()) as registry:
        session = session_for("highs")
        assert isinstance(session, ScipySession)
        assert registry.counter("lp.session.backend_fallbacks").value == 1
        # "auto" quietly settles for scipy: no fallback counter.
        assert isinstance(session_for("auto"), ScipySession)
        assert registry.counter("lp.session.backend_fallbacks").value == 1


# -- resilient_solve threading ----------------------------------------------

def test_resilient_solve_uses_session():
    with use_injector(FaultInjector()), \
            use_registry(MetricsRegistry()) as registry:
        session = ScipySession()
        solution = resilient_solve(capacity_model(), "sam", 0,
                                   policy=RetryPolicy(retries=0),
                                   session=session)
        assert solution.objective == pytest.approx(10.0)
        assert registry.counter("lp.session.cold_starts").value == 1


def test_resilient_solve_retries_through_session():
    injector = FaultInjector.from_spec("sam:solver@5x1")
    with use_injector(injector), use_registry(MetricsRegistry()) as registry:
        solution = resilient_solve(capacity_model(), "sam", 5,
                                   policy=RetryPolicy(retries=2),
                                   session=ScipySession())
        assert solution.objective == pytest.approx(10.0)
        assert registry.counter("resilience.retries.sam").value == 1
        # The failed attempt never reached the backend: one real solve.
        assert registry.counter("lp.session.cold_starts").value == 1


def test_resilient_solve_exhausts_retries_with_session():
    injector = FaultInjector.from_spec("sam:solver@5")
    with use_injector(injector), use_registry(MetricsRegistry()) as registry:
        with pytest.raises(SolverError):
            resilient_solve(capacity_model(), "sam", 5,
                            policy=RetryPolicy(retries=2),
                            session=ScipySession())
        assert len(injector.injections) == 3
        assert registry.counter("resilience.exhausted.sam").value == 1


# -- HighsSession: only where the bindings exist ----------------------------

needs_highspy = pytest.mark.skipif(not HIGHSPY_AVAILABLE,
                                   reason="highspy not installed")


@needs_highspy
def test_highs_session_matches_scipy():
    with use_registry():
        reference = solve_model(capacity_model())
        with HighsSession() as session:
            solution = session.solve(capacity_model())
    _assert_solutions_equal(solution, reference,
                            capacity_model(), capacity_model())


@needs_highspy
def test_highs_session_min_model_and_duals():
    def build():
        m = Model(sense="min", name="ge")
        x = m.add_variable("x", lb=0.0)
        y = m.add_variable("y", lb=0.0)
        m.add_constraint(x + y >= 4.0)
        m.set_objective(3.0 * x + y)
        return m

    with use_registry():
        reference = solve_model(build())
        solution = HighsSession().solve(build())
    _assert_solutions_equal(solution, reference, build(), build())


@needs_highspy
def test_highs_session_warm_starts_on_same_shape():
    with use_registry(MetricsRegistry()) as registry:
        with HighsSession() as session:
            session.solve(capacity_model())
            warm = session.solve(capacity_model())
        assert registry.counter("lp.session.cold_starts").value == 1
        assert registry.counter("lp.session.warm_starts").value == 1
    reference = solve_model(capacity_model())
    _assert_solutions_equal(warm, reference,
                            capacity_model(), capacity_model())


@needs_highspy
def test_highs_session_cold_starts_on_shape_change():
    with use_registry(MetricsRegistry()) as registry:
        with HighsSession() as session:
            session.solve(capacity_model())
            m = Model(sense="max", name="other")
            x = m.add_variable("x", lb=0.0, ub=1.0)
            m.set_objective(x.to_expr())
            session.solve(m)
        assert registry.counter("lp.session.cold_starts").value == 2
        assert "lp.session.warm_starts" not in registry


@needs_highspy
def test_highs_session_error_taxonomy():
    with use_registry():
        session = HighsSession()
        with pytest.raises(InfeasibleError):
            session.solve(infeasible_model())
        unbounded = Model(sense="max", name="unbounded")
        x = unbounded.add_variable("x", lb=0.0)
        unbounded.set_objective(x.to_expr())
        with pytest.raises((UnboundedError, SolverError)):
            session.solve(unbounded)


@needs_highspy
def test_highs_session_closed_raises():
    with use_registry():
        session = HighsSession()
        session.close()
        with pytest.raises(SolverError, match="closed"):
            session.solve(capacity_model())


@needs_highspy
def test_session_for_prefers_highs_when_available():
    with use_registry():
        assert isinstance(session_for("highs"), HighsSession)
        assert isinstance(session_for("auto"), HighsSession)
