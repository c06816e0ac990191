"""The byte request (paper §3.1).

A **byte request** asks to move ``demand`` volume units from ``src`` to
``dst`` within the timestep window ``[start, deadline]`` (both inclusive).
The customer's value per unit, ``value``, is private — schemes other than
the oracle baselines never read it directly.

The paper's rate requests (§4.4) are not reproduced: no scenario submits
one (DESIGN.md §6).

This module is a dependency leaf: both the traffic synthesizer (which
produces requests) and the Pretium core (which serves them) import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


def _require_finite(owner: str, **fields: float) -> None:
    """Reject a NaN or infinite field: every comparison with NaN is
    false, so the range checks after this would let it through."""
    for name, number in fields.items():
        if not math.isfinite(number):
            raise ValueError(f"{owner}: {name} must be finite, got {number}")


@dataclass(frozen=True, slots=True)
class ByteRequest:
    """A deadline-bound bulk transfer.

    Attributes
    ----------
    rid:
        Unique request id.
    src, dst:
        Endpoints (datacenter names).
    demand:
        Total volume the customer would like moved (``d_i``).
    arrival:
        Timestep at which the request is submitted (``a_i``); the provider
        learns of the request only then.
    start, deadline:
        First and last timestep (inclusive) during which data may be moved
        (``t1_i``, ``t2_i``).
    value:
        Private value per volume unit (``v_i``).  Read only by the user
        model and by oracle baselines.
    scavenger:
        If true, this is a best-effort "scavenger class" request (§4.4):
        it receives no guarantee and is scheduled only into leftover
        capacity at the price it named.
    cls:
        Name of the request's traffic class
        (:class:`~repro.traffic.classes.TrafficClass`).  A name, not the
        object, so requests stay light and JSON/pickle-friendly; the
        class table travels on the workload and
        :class:`~repro.core.state.NetworkState` resolves names at
        scheduling time.  ``"default"`` is the pre-class pipeline.
    """

    rid: int
    src: str
    dst: str
    demand: float
    arrival: int
    start: int
    deadline: int
    value: float
    scavenger: bool = False
    cls: str = "default"

    def __post_init__(self) -> None:
        # One chained test passes every valid request (NaN fails each
        # comparison); only an invalid one pays for finding out why.
        if not (0 < self.demand < math.inf and 0 <= self.value < math.inf
                and self.src != self.dst
                and 0 <= self.arrival <= self.start <= self.deadline):
            self._reject()

    def _reject(self) -> None:
        """Raise the error naming the first check this request fails."""
        _require_finite(f"request {self.rid}", demand=self.demand,
                        value=self.value)
        if self.src == self.dst:
            raise ValueError(f"request {self.rid}: src == dst ({self.src})")
        if self.demand <= 0:
            raise ValueError(f"request {self.rid}: demand must be positive")
        if self.value < 0:
            raise ValueError(f"request {self.rid}: negative value")
        if self.deadline < self.start:
            raise ValueError(f"request {self.rid}: deadline {self.deadline} "
                             f"before start {self.start}")
        if self.start < self.arrival:
            raise ValueError(f"request {self.rid}: starts before arrival")
        raise ValueError(f"request {self.rid}: negative arrival "
                         f"{self.arrival}")

    @property
    def window(self) -> range:
        """Timesteps during which this request may transmit."""
        return range(self.start, self.deadline + 1)

    @property
    def window_length(self) -> int:
        return self.deadline - self.start + 1

    @property
    def total_value(self) -> float:
        """Value if the full demand is delivered (linear utility)."""
        return self.value * self.demand

    def with_window(self, start: int, deadline: int) -> "ByteRequest":
        """Copy with an altered window (used by the deviation simulator)."""
        return replace(self, start=start, deadline=deadline)

    def with_demand(self, demand: float) -> "ByteRequest":
        """Copy with an altered demand."""
        return replace(self, demand=demand)
