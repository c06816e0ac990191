"""Deterministic link-failure schedules for chaos runs.

Where :mod:`~repro.faults.injector` fails *solver calls*, this module
fails *links*: a :class:`LinkKillSchedule` zeroes the usable capacity of
chosen directed links at chosen timesteps, through the same
:meth:`~repro.core.state.NetworkState.fail_link` path an operator-driven
outage would take.  Killing a link also triggers
:meth:`~repro.network.paths.PathCache.refresh`, so dynamic routing
policies (``ecmp``/``flowlet``) re-route around the dead link and bump
their re-hash epoch — which is exactly what the flowlet chaos tests
assert on.

Schedules are written as a compact spec string
(``RunOptions.link_kills`` / ``run --link-kills``)::

    SPEC   := CLAUSE ("," CLAUSE)*
    CLAUSE := SRC ">" DST "@" START ["-" END]

``SRC``/``DST`` are topology node names; ``START`` is the timestep the
kill takes effect; an optional ``END`` restores the link at that step
(exclusive), otherwise the link stays dead for the rest of the run.

Examples::

    S>M1@3          kill the S->M1 link from timestep 3 onward
    S>M1@3-7        kill S->M1 over timesteps 3..6, restore at 7
    S>M1@3,S>M2@5   two kills on one schedule

Only the online simulation engine applies schedules (offline baselines
solve against the capacity grid they are given, so a mid-run kill has
no meaning there); the engine applies each kill at the *start* of its
step, before PC/RA/SAM run.  Every scheme's run still checks its
schedule against the world (:meth:`LinkKillSchedule.check`), so a spec
naming a missing link or a step past the horizon fails the same way
whichever scheme it is given to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .injector import FaultSpecError

_CLAUSE = re.compile(
    r"^(?P<src>[^>@,\s]+)>(?P<dst>[^>@,\s]+)"
    r"@(?P<start>\d+)(?:-(?P<end>\d+))?$")


@dataclass(frozen=True)
class LinkKill:
    """One scheduled directed-link failure (grammar above)."""

    src: str
    dst: str
    start: int
    end: int | None = None   # restore step (exclusive); None = forever

    def apply(self, state) -> None:
        """Zero the link's capacity over [start, end) on ``state``."""
        state.fail_link(self.src, self.dst, start=self.start,
                        end=self.end)

    @property
    def spec(self) -> str:
        """The clause string that parses back to this kill."""
        when = (str(self.start) if self.end is None
                else f"{self.start}-{self.end}")
        return f"{self.src}>{self.dst}@{when}"


def parse_link_kills(spec: str) -> tuple[LinkKill, ...]:
    """Parse a spec string into kills; raises :class:`FaultSpecError`."""
    kills = []
    for raw in spec.split(","):
        clause = raw.strip()
        if not clause:
            continue
        match = _CLAUSE.match(clause)
        if match is None:
            raise FaultSpecError(
                f"bad link-kill clause {clause!r}; expected "
                f"SRC>DST@START[-END], e.g. 'S>M1@3'")
        start = int(match.group("start"))
        end = match.group("end")
        end = int(end) if end is not None else None
        if end is not None and end <= start:
            raise FaultSpecError(
                f"empty kill window in link-kill clause {clause!r}")
        kills.append(LinkKill(src=match.group("src"),
                              dst=match.group("dst"),
                              start=start, end=end))
    if not kills:
        raise FaultSpecError(f"link-kill spec {spec!r} contains no "
                             f"clauses")
    return tuple(kills)


class LinkKillSchedule:
    """Kills grouped by effect step, for one lookup per engine step."""

    def __init__(self, kills: tuple[LinkKill, ...] = ()) -> None:
        self.kills = tuple(kills)
        self._by_step: dict[int, tuple[LinkKill, ...]] = {}
        for kill in self.kills:
            self._by_step[kill.start] = \
                self._by_step.get(kill.start, ()) + (kill,)

    @classmethod
    def from_spec(cls, spec: str) -> "LinkKillSchedule":
        return cls(parse_link_kills(spec))

    def due(self, step: int) -> tuple[LinkKill, ...]:
        """The kills that take effect exactly at ``step``."""
        return self._by_step.get(step, ())

    def check(self, workload) -> None:
        """Raise :class:`FaultSpecError` naming the first kill whose link
        ``workload``'s topology lacks or that starts past its horizon —
        a misspelled chaos spec must fail before the run starts, not
        mid-run or silently test nothing."""
        topology, n_steps = workload.topology, workload.n_steps
        for kill in self.kills:
            if not topology.has_link(kill.src, kill.dst):
                raise FaultSpecError(
                    f"link-kill clause {kill.spec!r} names no link of the "
                    f"topology")
            if kill.start >= n_steps:
                raise FaultSpecError(
                    f"link-kill clause {kill.spec!r} starts at step "
                    f"{kill.start}, past the run's last step "
                    f"{n_steps - 1}")

    def apply(self, state, step: int) -> tuple[LinkKill, ...]:
        """Apply every kill due at ``step``; returns what was applied.

        The engine has already checked every kill against the workload
        (:meth:`check`).
        """
        due = self.due(step)
        for kill in due:
            kill.apply(state)
        return due

    def __len__(self) -> int:
        return len(self.kills)

    def __bool__(self) -> bool:
        return bool(self.kills)

    def __repr__(self) -> str:
        return (f"LinkKillSchedule("
                f"{', '.join(kill.spec for kill in self.kills)})")
