"""Unit tests for the fault-spec grammar and the injector itself."""

import pytest

from repro.faults import (FaultInjector, FaultRule, FaultSpecError,
                          get_injector, parse_fault_spec, use_injector)
from repro.lp import InfeasibleError, SolverError, SolverTimeout


# -- spec parsing -----------------------------------------------------------

def test_parse_single_clause():
    (rule,) = parse_fault_spec("sam:solver@5")
    assert rule == FaultRule(module="sam", kind="solver", start=5, end=5)


def test_parse_count_suffix():
    (rule,) = parse_fault_spec("sam:solver@5x1")
    assert rule.limit == 1
    assert (rule.start, rule.end) == (5, 5)


def test_parse_step_range():
    (rule,) = parse_fault_spec("ra:infeasible@3-6")
    assert (rule.start, rule.end) == (3, 6)


def test_parse_wildcards_and_probability():
    rules = parse_fault_spec("*:solver@p0.25, pc:timeout@*, ra:solver")
    assert rules[0].module == "*"
    assert rules[0].probability == pytest.approx(0.25)
    # '@*' and no '@' both mean "any step"
    assert rules[1].start is None and rules[1].probability is None
    assert rules[2].start is None


def test_parse_multiple_clauses_with_whitespace():
    rules = parse_fault_spec(" sam:solver@5x1 , pc:timeout@24 ")
    assert [r.module for r in rules] == ["sam", "pc"]
    assert [r.kind for r in rules] == ["solver", "timeout"]


@pytest.mark.parametrize("bad", [
    "", "   ", ",",                 # no clauses at all
    "sam",                          # missing kind
    "sam:explode@5",                # unknown kind
    "dns:solver@5",                 # unknown module
    "sam:solver@",                  # dangling '@'
    "sam:solver@5-",                # dangling range
    "sam:solver@6-5",               # empty range
    "sam:solver@p1.5",              # probability out of [0, 1]
    "sam:solver@5x",                # dangling count
    "sam solver@5",                 # wrong separator
])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(FaultSpecError):
        parse_fault_spec(bad)


def test_fault_spec_error_is_a_value_error():
    # PretiumConfig validation and the CLI both rely on this.
    assert issubclass(FaultSpecError, ValueError)


# -- firing semantics -------------------------------------------------------

def test_check_raises_configured_kind_at_matching_point():
    cases = [("solver", SolverError), ("infeasible", InfeasibleError),
             ("timeout", SolverTimeout)]
    for kind, exc_type in cases:
        injector = FaultInjector.from_spec(f"sam:{kind}@5")
        injector.check("sam", 4)        # wrong step: no fault
        injector.check("ra", 5)         # wrong module: no fault
        with pytest.raises(exc_type):
            injector.check("sam", 5)
        assert injector.injections == [("sam", 5, kind)]


def test_wildcard_module_hits_every_module():
    injector = FaultInjector.from_spec("*:solver@2")
    for module in ("ra", "sam", "pc"):
        with pytest.raises(SolverError):
            injector.check(module, 2)


def test_limit_caps_injection_count():
    injector = FaultInjector.from_spec("sam:solver@5x2")
    for _ in range(2):
        with pytest.raises(SolverError):
            injector.check("sam", 5)
    injector.check("sam", 5)  # third attempt passes through
    assert len(injector.injections) == 2


def test_unlimited_rule_fails_every_attempt():
    injector = FaultInjector.from_spec("sam:solver@5")
    for _ in range(4):
        with pytest.raises(SolverError):
            injector.check("sam", 5)
    assert len(injector.injections) == 4


def test_probabilistic_rule_is_deterministic_per_seed():
    def schedule(seed):
        injector = FaultInjector.from_spec("sam:solver@p0.5", seed=seed)
        fired = []
        for step in range(50):
            try:
                injector.check("sam", step)
            except SolverError:
                fired.append(step)
        return fired

    first, second = schedule(7), schedule(7)
    assert first == second          # same seed -> same fault schedule
    assert 5 < len(first) < 45      # and it actually is probabilistic
    assert schedule(8) != first     # different seed -> different draws


def test_use_injector_scopes_and_restores():
    injector = FaultInjector.from_spec("sam:solver@1")
    default = get_injector()
    with use_injector(injector) as active:
        assert active is injector
        assert get_injector() is injector
        with pytest.raises(SolverError):
            get_injector().check("sam", 1)
    assert get_injector() is default
    get_injector().check("sam", 1)  # default injector never fires
