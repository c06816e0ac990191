"""Run-level options: one typed bundle for every knob a run accepts.

Before this module, the knobs of a run were scattered: solver budgets
and the routing policy lived on :class:`~repro.core.config.PretiumConfig`,
fault injection and telemetry were wired up by hand at every call site
(the CLI, the chaos conftest, ad-hoc scripts).  :class:`RunOptions`
consolidates them into one picklable dataclass accepted by the engine
(:func:`repro.sim.engine.simulate`), the runner
(:func:`repro.experiments.runner.run_scheme`), the sweep subsystem
(:mod:`repro.experiments.sweep`) and the CLI.

Two kinds of fields:

- **config-mapped** (``routing``, ``solver_*``) —
  overrides applied to a scheme's :class:`PretiumConfig` (or an offline
  scheme's ``routing`` kwarg) when the scheme is built from a
  :class:`~repro.experiments.runner.SchemeSpec`; ``None`` means "keep
  the scheme's default";
- **environment** (``faults``/``fault_seed``, ``telemetry``,
  ``trace_tags``, ``workers``) — the scoped process state
  (:func:`run_context`) every run executes inside: a seeded fault
  injector, a per-run metrics registry, and a JSONL trace writer whose
  events can be stamped with sweep worker/cell ids.
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

#: RunOptions fields that map onto PretiumConfig attributes of the same
#: name (applied via ``config_overrides`` when a scheme is built).
CONFIG_FIELDS = ("routing", "solver_backend", "solver_retries",
                 "solver_backoff", "solver_time_limit", "solver_maxiter")


@dataclass(frozen=True)
class RunOptions:
    """Every run-level knob, in one typed, picklable bundle.

    Attributes
    ----------
    routing:
        Routing-policy override (``"kpaths"``/``"ecmp"``/``"flowlet"``,
        see :data:`repro.network.ROUTING_POLICIES`); maps onto
        ``PretiumConfig.routing`` for online schemes and the ``routing``
        kwarg of the offline schemes.
    classes:
        Traffic-class spec for workload synthesis: ``None`` (single
        class), a mix name (e.g. ``"qos3"``), a
        :class:`~repro.traffic.classes.ClassMix` or a tuple of
        :class:`~repro.traffic.classes.TrafficClass`.  Applied when a
        scenario is built by name through :mod:`repro.api`; scenarios
        that already declare classes keep their own.
    solver_backend:
        LP backend override (``"scipy"``/``"highs"``/``"auto"``; see
        :class:`~repro.core.config.PretiumConfig.solver_backend`).
    solver_retries / solver_backoff / solver_time_limit / solver_maxiter:
        Resilience budgets (see :class:`~repro.core.config.PretiumConfig`).
    faults:
        Fault-injection spec installed process-wide for the run (see
        :func:`repro.faults.parse_fault_spec`); ``None`` disables it.
    fault_seed:
        Seed for probabilistic fault rules.
    link_kills:
        Scheduled link-failure spec (see
        :func:`repro.faults.parse_link_kills`, e.g. ``"S>M1@3"``).
        Applied by the online simulation engine at the start of each
        kill's step; offline baselines ignore it (they solve against
        the capacity grid they are given).  ``None`` disables it.
    telemetry:
        JSONL trace path; when set the run executes under a fresh
        tracer + metrics registry writing to this file.
    trace_tags:
        ``(key, value)`` pairs stamped onto every emitted event (the
        sweep tags shards with ``cell`` and ``worker`` ids).
    workers:
        Process-parallelism degree for sweeps (a single run ignores it;
        :func:`repro.experiments.sweep.run_sweep` shards its grid over
        this many persistent workers).
    chunk_size:
        Cells per pool task in a parallel sweep.  ``None`` (the default)
        sizes chunks adaptively from the grid and worker count; an
        explicit value forces it (the differential suite pins 1, 3 and
        8 to prove chunk boundaries are unobservable).
    """

    routing: str | None = None
    classes: object = None
    solver_backend: str | None = None
    solver_retries: int | None = None
    solver_backoff: float | None = None
    solver_time_limit: float | None = None
    solver_maxiter: int | None = None
    faults: str | None = None
    fault_seed: int = 0
    link_kills: str | None = None
    telemetry: str | Path | None = None
    trace_tags: tuple[tuple[str, object], ...] = ()
    workers: int = 1
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.routing is not None:
            from .network.paths import ROUTING_POLICIES
            if self.routing not in ROUTING_POLICIES:
                raise ValueError(
                    f"unknown routing {self.routing!r}; expected one of "
                    f"{list(ROUTING_POLICIES)}")
        if self.classes is not None:
            # Validate eagerly (and normalise nothing: the spec is kept
            # verbatim so the bundle stays hashable/picklable).
            from .traffic.classes import resolve_classes
            resolve_classes(self.classes)
        if self.solver_backend not in (None, "scipy", "highs", "auto"):
            raise ValueError(
                f"unknown solver_backend {self.solver_backend!r}")
        if self.solver_retries is not None and self.solver_retries < 0:
            raise ValueError("solver_retries must be >= 0")
        if self.solver_backoff is not None and self.solver_backoff < 0:
            raise ValueError("solver_backoff must be >= 0")
        if self.solver_time_limit is not None and self.solver_time_limit <= 0:
            raise ValueError("solver_time_limit must be positive")
        if self.solver_maxiter is not None and self.solver_maxiter <= 0:
            raise ValueError("solver_maxiter must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None for "
                             "adaptive chunking)")
        if self.faults is not None:
            # Fail at construction, not silently mid-run (same contract
            # as PretiumConfig's eager spec validation).
            from .faults.injector import parse_fault_spec
            parse_fault_spec(self.faults)
        if self.link_kills is not None:
            from .faults.links import parse_link_kills
            parse_link_kills(self.link_kills)

    # -- derived views -------------------------------------------------------
    def config_overrides(self) -> dict:
        """The non-``None`` config-mapped fields, as a kwargs dict."""
        out = {}
        for name in CONFIG_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def replace(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class ServiceOptions:
    """Every live-service knob, in one typed, picklable bundle.

    The :class:`RunOptions` analogue for the online admission service
    (:mod:`repro.service`): where :class:`RunOptions` scopes one batch
    run, :class:`ServiceOptions` shapes the long-lived event loop that
    streams arrivals through the same machinery.

    Attributes
    ----------
    batch_window:
        Micro-batch window, seconds: after the first queued submission is
        picked up, the loop lingers this long collecting an arrival burst
        and admits the whole batch between SAM/PC timestep ticks.  ``0``
        processes submissions one by one (lowest latency, least
        amortisation).
    batch_max:
        Hard cap on submissions per micro-batch, so a flood cannot starve
        the tick that follows the batch.
    cache_size:
        Warm menu-cache capacity (entries), shared across all (src, dst)
        pairs; ``0`` disables caching entirely (every quote is cold).
    quote_deadline:
        Per-request quote latency budget, seconds.  A request whose
        budget is spent before quoting starts degrades to the
        current-price menu (never blocks the loop); ``None`` disables
        deadline enforcement.
    max_pending:
        Backpressure bound: submissions in flight (queued or being
        processed) beyond this block the submitting thread until the
        loop drains, or fail fast when the caller asked not to wait.
    metrics_port:
        When set, the service starts a
        :class:`~repro.telemetry.live.LiveMetricsServer` on this
        localhost port (``/metrics`` Prometheus exposition, ``/healthz``,
        ``/snapshot``) for its lifetime.  ``0`` binds an ephemeral port
        (read it back from ``service.metrics_server.port``); ``None``
        (default) serves nothing.
    metrics_snapshot_period:
        Sampling period, seconds, for the live server's history ring
        (the short time series ``/snapshot`` returns).  ``0`` disables
        the ring; ignored without ``metrics_port``.
    """

    batch_window: float = 0.0
    batch_max: int = 64
    cache_size: int = 1024
    quote_deadline: float | None = None
    max_pending: int = 1024
    metrics_port: int | None = None
    metrics_snapshot_period: float = 1.0

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if self.quote_deadline is not None and self.quote_deadline <= 0:
            raise ValueError("quote_deadline must be positive")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.metrics_port is not None and \
                not 0 <= self.metrics_port <= 65535:
            raise ValueError("metrics_port must be in [0, 65535] "
                             "(0 binds an ephemeral port)")
        if self.metrics_snapshot_period < 0:
            raise ValueError("metrics_snapshot_period must be >= 0")

    def replace(self, **changes) -> "ServiceOptions":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)


@dataclass
class RunEnvironment:
    """What :func:`run_context` scoped for the duration of a run."""

    tracer: object | None = None
    injector: object | None = None


@contextmanager
def run_context(options: RunOptions | None):
    """Scope the process-wide run environment an options bundle asks for.

    With ``options`` set this installs, for the duration of the block:

    - a seeded :class:`~repro.faults.FaultInjector` (``options.faults``);
    - a fresh :class:`~repro.telemetry.MetricsRegistry` plus a
      :class:`~repro.telemetry.Tracer` writing to ``options.telemetry``
      (events stamped with ``options.trace_tags``), with the metrics
      snapshot emitted and the sink closed on exit.

    Yields a :class:`RunEnvironment` naming what was installed, so
    callers can report injector/trace facts without re-deriving them.
    ``options=None`` (or an options bundle asking for nothing) yields an
    empty environment and changes no process state.
    """
    env = RunEnvironment()
    if options is None or (options.faults is None
                           and options.telemetry is None):
        # Nothing to install: skip the telemetry machinery entirely.
        # Sweeps hit this once per cell when no sink is configured, so
        # the no-telemetry path must not pay for imports or scope setup.
        yield env
        return
    from .telemetry import TagSink, TraceWriter, Tracer, get_registry, \
        use_registry, use_tracer
    with ExitStack() as stack:
        if options.faults is not None:
            from .faults import FaultInjector, use_injector
            env.injector = FaultInjector.from_spec(options.faults,
                                                  seed=options.fault_seed)
            stack.enter_context(use_injector(env.injector))
        registry = None
        outer_registry = None
        if options.telemetry is not None:
            path = Path(options.telemetry)
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            outer_registry = get_registry()
            registry = stack.enter_context(use_registry())
            sink = TraceWriter(path)
            if options.trace_tags:
                sink = TagSink(sink, dict(options.trace_tags))
            env.tracer = Tracer(sinks=[sink], registry=registry)
            stack.enter_context(use_tracer(env.tracer))
        try:
            yield env
        finally:
            if env.tracer is not None:
                env.tracer.emit_metrics()
                env.tracer.close()
            if registry is not None:
                # Roll the scoped registry up into the enclosing one, so
                # an outer observer — a sweep worker capturing per-cell
                # metrics, a campaign's live /metrics endpoint — still
                # sees runs that installed their own scoped registry.
                outer_registry.merge_dump(registry.dump())
