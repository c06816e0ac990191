"""Tripwire for the names the repo benchmark reaches into ``src/`` by.

``benchmarks/e2e`` may not be edited alongside a code change, and it
patches and reads the program by *name*: the callables in
``shims.TARGETS``, two attributes ``measure.py::header`` reports, and
the counters ``measure.py`` turns into per-layer rows.  Removing or
renaming any of them breaks the benchmark on the next commit, which
only the ``e2e-smoke`` CI job would otherwise notice.
"""

import importlib
import re
from pathlib import Path

import pytest

import repro
from benchmarks.e2e import shims
from repro.experiments.scenarios import tiny_scenario
from repro.telemetry import MetricsRegistry, use_registry

from .service.test_engine import replay

SRC_TEXT = "\n".join(path.read_text(encoding="utf-8") for path in
                     Path(repro.__file__).resolve().parent.rglob("*.py"))

#: Counter names ``benchmarks/e2e/measure.py`` reads.  Several
#: legitimately read 0 on a clean run (no warm starts, no retries).
COUNTERS = ("sam.fast_path.hits", "sam.skeleton.hits", "sam.skeleton.misses",
            "lp.session.warm_starts", "lp.session.cold_starts",
            "resilience.retries")


@pytest.mark.parametrize("module_name, owner_name, attr",
                         [target[:3] for target in shims.TARGETS])
def test_every_shim_target_resolves(module_name, owner_name, attr):
    owner = importlib.import_module(module_name)
    if owner_name is not None:
        owner = getattr(owner, owner_name)
    assert callable(getattr(owner, attr))


def test_header_attributes_exist():
    from repro.core import PretiumConfig
    from repro.lp import HIGHSPY_AVAILABLE
    assert isinstance(HIGHSPY_AVAILABLE, bool)
    assert isinstance(PretiumConfig().solver_backend, str)


@pytest.mark.parametrize("name", COUNTERS)
def test_counter_is_still_registered_in_src(name):
    assert re.search(r"""["']%s["']""" % re.escape(name), SRC_TEXT), name


def test_skeleton_counters_move_on_a_pretium_run():
    with use_registry(MetricsRegistry()) as registry:
        repro.run("Pretium", tiny_scenario(seed=0))
        assert registry.counter("sam.skeleton.misses").value > 0


def _recorded(run):
    """Span name -> count of what ``run()`` hit under the shims."""
    recorder = shims.Recorder()
    with shims.installed(recorder):
        run()
    return {name: len(spans)
            for name, spans in shims.by_name(recorder.spans).items()}


def _batch_run(scenario):
    repro.run("Pretium", scenario)


def _engine_replay(scenario):
    replay(scenario).finish()


@pytest.mark.parametrize("drive", [_batch_run, _engine_replay])
def test_the_step_loop_calls_what_the_shims_patch(drive):
    """The loop must reach ``apply_transmissions`` / ``settle_contracts``
    through module globals the harness patches — a local alias would
    make ``sim.apply_s`` and ``sim.settle_s`` silently read 0."""
    scenario = tiny_scenario(seed=0)
    counts = _recorded(lambda: drive(scenario))
    assert counts.get("sim.apply", 0) >= 1
    assert counts.get("sim.settle", 0) == 1
    assert counts.get("scheme.arrival", 0) == scenario.workload.n_requests


def test_an_audited_path_records_both_telemetry_spans(tmp_path):
    """``measure.py`` indexes the ``telemetry.read_trace`` and
    ``telemetry.audit`` spans of ``repro.audit(path)`` without a default,
    so both names must still be called through ``repro.api``'s globals
    (the reader only opens the stream; parsing is timed as the audit)."""
    trace = tmp_path / "trace.jsonl"
    repro.run("Pretium", tiny_scenario(seed=0),
              options=repro.RunOptions(telemetry=trace))
    counts = _recorded(lambda: repro.audit(trace))
    assert counts.get("telemetry.read_trace") == 1
    assert counts.get("telemetry.audit") == 1
