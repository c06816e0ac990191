"""Tests for the consolidated :class:`repro.options.RunOptions` bundle."""

import pickle

import pytest

from repro.experiments.runner import run_scheme
from repro.experiments.scenarios import tiny_scenario
from repro.faults import FaultSpecError
from repro.options import RunOptions, run_context
from repro.sim import simulate
from repro.telemetry import read_trace
from tests.reference.expr_builders import expr_builders
from tests.reference.quote import scan_quotes


@pytest.fixture(scope="module")
def scenario():
    return tiny_scenario(seed=0)


# -- validation ---------------------------------------------------------------

def test_defaults_ask_for_nothing():
    options = RunOptions()
    assert options.config_overrides() == {}
    assert options.faults is None and options.telemetry is None
    assert options.workers == 1


@pytest.mark.parametrize("kwargs", [
    dict(solver_backend="cplex"),
    dict(solver_retries=-1),
    dict(routing="spray"),
    dict(classes="qos99"),
    dict(faults="sam:nonsense"),
    dict(link_kills="garbage"),
    dict(workers=0),
])
def test_invalid_values_rejected_eagerly(kwargs):
    with pytest.raises(ValueError):
        RunOptions(**kwargs)


def test_bad_fault_spec_rejected_at_construction():
    with pytest.raises(FaultSpecError):
        RunOptions(faults="sam:nonsense")


def test_config_overrides_collects_non_none_config_fields():
    options = RunOptions(solver_backend="scipy", solver_retries=0,
                         faults="sam:solver@1", telemetry="t.jsonl")
    assert options.config_overrides() == {"solver_backend": "scipy",
                                          "solver_retries": 0}


def test_replace_and_pickle_roundtrip():
    options = RunOptions(routing="ecmp", workers=4,
                         trace_tags=(("cell", 3),))
    clone = pickle.loads(pickle.dumps(options))
    assert clone == options
    assert options.replace(workers=1).workers == 1
    assert options.workers == 4  # frozen original untouched


# -- run_context --------------------------------------------------------------

def test_run_context_none_installs_nothing():
    with run_context(None) as env:
        assert env.tracer is None and env.injector is None


def test_run_context_scopes_injector_and_tagged_trace(tmp_path):
    trace = tmp_path / "deep" / "trace.jsonl"
    options = RunOptions(faults="sam:solver@1x1", fault_seed=3,
                         telemetry=trace, trace_tags=(("cell", 7),))
    with run_context(options) as env:
        assert env.injector is not None
        assert env.tracer is not None
        env.tracer.emit({"kind": "probe"})
    events = read_trace(trace)  # parent dir was created, sink closed
    assert events and all(event["cell"] == 7 for event in events)


# -- options are the only way in: flat keywords are plain TypeErrors ------------

def test_run_scheme_unknown_kwarg_is_type_error(scenario):
    with pytest.raises(TypeError, match="fault_spec"):
        run_scheme("NoPrices", scenario, fault_spec="sam:solver@1")
    with pytest.raises(TypeError, match="faults"):
        run_scheme("NoPrices", scenario, faults="sam:solver@1")


def test_simulate_accepts_options_and_rejects_flat_kwargs(scenario,
                                                          tmp_path):
    from repro.core import PretiumController
    options = RunOptions(telemetry=tmp_path / "a.jsonl")
    simulate(PretiumController(), scenario.workload, options=options)
    assert (tmp_path / "a.jsonl").exists()
    with pytest.raises(TypeError, match="telemetry"):
        simulate(PretiumController(), scenario.workload,
                 telemetry=tmp_path / "b.jsonl")
    assert not (tmp_path / "b.jsonl").exists()


# -- whole runs against the tests/reference twins ---------------------------------

def test_scan_quote_reference_matches_heap_over_a_run(scenario):
    with scan_quotes():
        scan = run_scheme("Pretium", scenario)
    heap = run_scheme("Pretium", scenario)
    # Both quote paths are exact: same economics, different machinery.
    assert scan.payments == heap.payments
    assert scan.delivered == heap.delivered


def test_expr_builder_reference_matches_emitters_for_offline_schemes(
        scenario):
    coo = run_scheme("OPT", scenario)
    with expr_builders():
        expr = run_scheme("OPT", scenario)
    assert coo.delivered == pytest.approx(expr.delivered)


def test_invalid_routing_classes_and_kills_rejected_eagerly():
    with pytest.raises(ValueError, match="unknown routing"):
        RunOptions(routing="spray")
    with pytest.raises(ValueError, match="unknown class mix"):
        RunOptions(classes="qos99")
    with pytest.raises(ValueError):
        RunOptions(link_kills="garbage")
    # The happy spellings validate without touching process state.
    options = RunOptions(routing="flowlet", classes="qos3",
                         link_kills="a>b@1")
    assert options.config_overrides()["routing"] == "flowlet"
    assert "classes" not in options.config_overrides()
    assert "link_kills" not in options.config_overrides()

