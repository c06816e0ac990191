"""Deterministic, seeded fault injection for the control loop.

A :class:`FaultInjector` holds a list of :class:`FaultRule` entries and is
consulted by the resilience layer before every solver call (and by the
admission interface before every quote).  When a rule fires the injector
raises the configured LP exception, exactly as if the backend had failed —
so the degradation paths under test are the *real* ones, not mocks.

Rules are written as a compact spec string (the ``--faults`` CLI flag and
``RunOptions.faults`` both accept it; :func:`repro.options.run_context`
installs the injector process-wide)::

    SPEC   := CLAUSE ("," CLAUSE)*
    CLAUSE := MODULE ":" KIND ["@" WHEN] ["x" COUNT]
    MODULE := "ra" | "sam" | "pc" | "*"
    KIND   := "solver" | "infeasible" | "timeout"
    WHEN   := STEP | STEP "-" STEP | "*" | "p" FLOAT

Examples::

    sam:solver@5        fail every SAM solve attempt at timestep 5
    sam:solver@5x1      fail exactly one attempt (a retry then succeeds)
    pc:timeout@24       the price computation at t=24 times out
    ra:infeasible@3-6   RA quoting fails over timesteps 3..6
    *:solver@p0.1       every module's solves fail w.p. 0.1 (seeded)

Probability draws come from one ``numpy`` generator seeded at
construction, so a given (spec, seed) pair injects the identical fault
schedule on every run — which is what lets the chaos suite assert
differential equivalence across implementation paths.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..lp.errors import InfeasibleError, SolverError, SolverTimeout
from ..telemetry import get_registry

#: Module labels the control loop injects at.
MODULES = ("ra", "sam", "pc")

#: Fault kinds and the exception each one raises.
KINDS = {
    "solver": SolverError,
    "infeasible": InfeasibleError,
    "timeout": SolverTimeout,
}

_CLAUSE = re.compile(
    r"^(?P<module>ra|sam|pc|\*):(?P<kind>solver|infeasible|timeout)"
    r"(?:@(?P<when>\*|p(?:\d+(?:\.\d+)?|\.\d+)|\d+(?:-\d+)?))?"
    r"(?:x(?P<count>\d+))?$")


class FaultSpecError(ValueError):
    """A ``--faults`` spec string could not be parsed."""


@dataclass
class FaultRule:
    """One injection rule (see the module docstring for the grammar)."""

    module: str                  # "ra" | "sam" | "pc" | "*"
    kind: str                    # key into KINDS
    start: int | None = None     # step range [start, end]; None = any step
    end: int | None = None
    probability: float | None = None  # None = fire on every match
    limit: int | None = None     # max injections; None = unlimited
    fired: int = field(default=0, compare=False)

    def matches(self, module: str, step: int) -> bool:
        if self.module != "*" and self.module != module:
            return False
        if self.limit is not None and self.fired >= self.limit:
            return False
        if self.start is not None and not self.start <= step <= self.end:
            return False
        return True


def parse_fault_spec(spec: str) -> list[FaultRule]:
    """Parse a spec string into rules; raises :class:`FaultSpecError`."""
    rules = []
    for raw in spec.split(","):
        clause = raw.strip()
        if not clause:
            continue
        match = _CLAUSE.match(clause)
        if match is None:
            raise FaultSpecError(
                f"bad fault clause {clause!r}; expected "
                f"MODULE:KIND[@WHEN][xCOUNT], e.g. 'sam:solver@5x1'")
        when = match.group("when")
        start = end = probability = None
        if when and when != "*":
            if when.startswith("p"):
                probability = float(when[1:])
                if not 0.0 <= probability <= 1.0:
                    raise FaultSpecError(
                        f"fault probability must be in [0, 1]: {clause!r}")
            elif "-" in when:
                lo, hi = when.split("-")
                start, end = int(lo), int(hi)
                if end < start:
                    raise FaultSpecError(
                        f"empty step range in fault clause {clause!r}")
            else:
                start = end = int(when)
        count = match.group("count")
        rules.append(FaultRule(module=match.group("module"),
                               kind=match.group("kind"),
                               start=start, end=end,
                               probability=probability,
                               limit=int(count) if count else None))
    if not rules:
        raise FaultSpecError(f"fault spec {spec!r} contains no clauses")
    return rules


class FaultInjector:
    """Raises configured LP exceptions at chosen (module, timestep) points.

    Every injected exception carries ``injected = True`` so logs and
    tests can tell a synthetic fault from a genuine backend failure.
    """

    def __init__(self, rules: list[FaultRule] = (), seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        #: (module, step, kind) log of every injection, in order.
        self.injections: list[tuple[str, int, str]] = []

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultInjector":
        return cls(parse_fault_spec(spec), seed=seed)

    def check(self, module: str, step: int) -> None:
        """Raise the configured exception if any rule fires at this point.

        Called once per solve *attempt*, so an unlimited rule also fails
        retries (forcing the module fallback), while an ``xN`` rule lets
        the (N+1)-th attempt through (exercising retry-recovery).
        """
        for rule in self.rules:
            if not rule.matches(module, step):
                continue
            if rule.probability is not None \
                    and self._rng.random() >= rule.probability:
                continue
            rule.fired += 1
            self.injections.append((module, step, rule.kind))
            registry = get_registry()
            registry.counter("faults.injected").inc()
            registry.counter(f"faults.injected.{module}").inc()
            raise KINDS[rule.kind](
                f"injected {rule.kind} fault at ({module}, step {step})")

    def __repr__(self) -> str:
        return f"FaultInjector({len(self.rules)} rules, seed={self.seed})"


#: The disabled default: no rules, check() is a no-op loop over nothing.
_NULL_INJECTOR = FaultInjector()
_current: FaultInjector = _NULL_INJECTOR


def get_injector() -> FaultInjector:
    """The process-wide current injector (inactive unless configured)."""
    return _current


def set_injector(injector: FaultInjector | None) -> FaultInjector:
    """Install ``injector`` (or the inactive default for ``None``);
    returns the previous injector so callers can restore it."""
    global _current
    previous = _current
    _current = injector if injector is not None else _NULL_INJECTOR
    return previous


@contextmanager
def use_injector(injector: FaultInjector | None):
    """Scope ``injector`` as current for a with-block (tests, CLI runs)."""
    previous = set_injector(injector)
    try:
        yield get_injector()
    finally:
        set_injector(previous)
