"""Timing shims: spans recorded from outside the program.

:func:`installed` wraps the public callables named in :data:`TARGETS`
with a span-recording shim for the duration of a ``with`` block and puts
the originals back afterwards.  Spans stay in memory
(:class:`Recorder.spans`) until the harness writes them out; a layer's
self time is its spans' duration minus the part their children cover
(:func:`self_times`).

Spans nest per thread.  A thread that has no open span of its own (the
admission service's loop thread) parents its spans on the recorder's
current root, so a service pass is still one tree.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """In-memory span store: ``(id, parent, name, start, end, attrs)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` wrapped to record one ``name`` span per call.

        ``attrs(args, kwargs)`` may return a small dict stored with the
        span (a request id, an LP's size).
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else self.root
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end,
                              attrs(args, kwargs) if attrs else None))
        return shim

    @contextmanager
    def span(self, name: str, root: bool = False):
        """A span around harness code; ``root`` adopts other threads'."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        previous_root = self.root
        if root:
            self.root = sid
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.root = previous_root
            self.spans.append((sid, parent, name, start, end, None))

    def write(self, path, spans=None, run: str = "") -> None:
        """One JSON object per span; ``run`` is the id they all share."""
        with open(path, "w") as handle:
            for sid, parent, name, start, end, attrs in (
                    self.spans if spans is None else spans):
                row = {"run": run, "id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if attrs:
                    row.update(attrs)
                handle.write(json.dumps(row) + "\n")


def _rid_of_request(args, kwargs):
    # scheme.arrival(self, request, t) / RequestAdmission.quote(self, request, now)
    return {"rid": args[1].rid}


def _lp_size(args, kwargs):
    # solve_model(model, ...) and Session.solve(self, model, ...)
    model = args[0] if hasattr(args[0], "num_variables") else args[1]
    return {"vars": model.num_variables, "rows": model.num_constraints}


#: (module, owner class or None, attribute, span name, attrs).  A name
#: imported ``from x import f`` is patched where it is *looked up*, so
#: some callables appear once per importing module.
TARGETS = (
    ("benchmarks.e2e.workloads", None, "topology", "network.topology", None),
    ("repro.network.paths", None, "k_shortest_paths", "network.ksp", None),
    ("repro.network.topology", "Topology", "to_networkx", "network.to_networkx", None),
    ("repro.traffic.matrices", None, "synthesize_tm_series", "traffic.synthesize_tm", None),
    ("repro.traffic.workload", None, "calibrate_tm", "traffic.calibrate", None),
    ("repro.traffic.requests", None, "synthesize_requests", "traffic.synthesize_requests", None),
    ("repro.core.pretium", "PretiumController", "window_start", "scheme.window_start", None),
    ("repro.core.pretium", "PretiumController", "arrival", "scheme.arrival", _rid_of_request),
    ("repro.core.pretium", "PretiumController", "step", "scheme.step", None),
    ("repro.core.admission", "RequestAdmission", "quote", "ra.quote", _rid_of_request),
    ("repro.core.admission", "RequestAdmission", "admit", "ra.admit", _rid_of_request),
    ("repro.core.sam", "ScheduleAdjuster", "adjust", "sam.adjust", None),
    ("repro.core.pretium", None, "install_plan", "sam.install_plan", None),
    ("repro.core.pricer", "PriceComputer", "update", "pc.update", None),
    ("repro.lp.solver", None, "solve_model", "lp.solve", _lp_size),
    ("repro.faults.resilience", None, "solve_model", "lp.solve", _lp_size),
    ("repro.lp.solver", "HighsSession", "solve", "lp.solve", _lp_size),
    ("repro.sim.engine", None, "apply_transmissions", "sim.apply", None),
    ("repro.service.engine", None, "apply_transmissions", "sim.apply", None),
    ("repro.sim.engine", None, "settle_contracts", "sim.settle", None),
    ("repro.service.engine", None, "settle_contracts", "sim.settle", None),
    ("repro.api", None, "summarize", "sim.summarize", None),
    ("repro.api", None, "read_trace", "telemetry.read_trace", None),
    ("repro.api", None, "audit_events", "telemetry.audit", None),
)

#: Span name -> the layer (module name) its self time is charged to.
#: Controller glue around RA / SAM / PC counts with the module it drives.
LAYER_OF = {
    "network.topology": "network", "network.ksp": "network",
    "network.to_networkx": "network",
    "traffic.synthesize_tm": "traffic", "traffic.calibrate": "traffic",
    "traffic.synthesize_requests": "traffic",
    "scheme.arrival": "core.admission", "ra.quote": "core.admission",
    "ra.admit": "core.admission",
    "scheme.step": "core.sam", "sam.adjust": "core.sam",
    "sam.install_plan": "core.sam",
    "scheme.window_start": "core.pricer", "pc.update": "core.pricer",
    "lp.solve": "lp",
    "sim.apply": "sim", "sim.settle": "sim", "sim.summarize": "sim",
    "run": "sim",
    "telemetry.read_trace": "telemetry", "telemetry.audit": "telemetry",
    "service.pass": "service",
    "setup": "harness",
}
LAYERS = ("traffic", "network", "core.admission", "core.sam", "core.pricer",
          "lp", "sim", "service", "telemetry", "harness")


@contextmanager
def installed(recorder: Recorder, targets=TARGETS):
    """Patch every target with a recording shim; always restore."""
    undo = []
    wrapped: dict[tuple[int, str], object] = {}
    try:
        for module_name, owner_name, attr, span_name, attrs in targets:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            # One shim per (callable, span name): a function reachable
            # under two module globals must not be wrapped twice.
            key = (id(original), span_name)
            if key not in wrapped:
                wrapped[key] = recorder.wrap(span_name, original, attrs)
            setattr(owner, attr, wrapped[key])
            undo.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {sid: end - start for sid, _p, _n, start, end, _a in spans}
    for _sid, parent, _name, start, end, _attrs in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def layer_self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer; sums to the root spans' wall."""
    own = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for sid, _parent, name, _start, _end, _attrs in spans:
        totals[LAYER_OF[name]] += own[sid]
    return totals


def by_name(spans) -> dict[str, list[tuple]]:
    grouped: dict[str, list[tuple]] = {}
    for span in spans:
        grouped.setdefault(span[2], []).append(span)
    return grouped


def durations(spans) -> list[float]:
    return [end - start for _s, _p, _n, start, end, _a in spans]
