"""Traffic classes: QoS tiers priced and scheduled jointly (§6 extension).

The paper's evaluation prices a single class of byte requests.  Real
inter-DC workloads mix *interactive* traffic (tight deadlines, high
value, never preempted), *elastic* transfers (the paper's default), and
*background* replication (loose deadlines, low value, preemptible) —
the multi-class model of the WAN TE literature.  A
:class:`TrafficClass` is a frozen per-class spec:

- ``value_multiplier`` scales the sampled request value (the per-class
  value distribution is the workload's base distribution, rescaled);
- ``deadline_stretch`` scales the sampled transfer duration (the
  per-class deadline law: interactive deadlines are tighter, background
  deadlines looser);
- ``price_multiplier`` scales every quoted menu price — the per-class
  price surface the RA/PC expose (premium classes pay more per byte for
  the same capacity);
- ``preemptible`` marks classes whose *guarantees* the schedule
  adjuster may displace (via an explicit slack variable in the welfare
  LP) when sufficiently higher-weighted traffic needs the capacity;
- ``weight`` is the priority weight of the class in SAM's welfare
  objective;
- ``share`` is the class's probability mass when the workload
  synthesizer assigns classes to requests.

The **default class is exactly the pre-class pipeline**: every
multiplier is 1, no preemption, and — critically — a single-class mix
assigns without consuming randomness, so a ``(DEFAULT_CLASS,)``
workload is bit-identical to one synthesized with ``classes=None``
(the differential test in ``tests/experiments`` holds all schemes to
this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

__all__ = ["CLASS_MIXES", "ClassMix", "DEFAULT_CLASS", "TrafficClass",
           "resolve_classes"]


@dataclass(frozen=True)
class TrafficClass:
    """One QoS class of byte requests (frozen, hashable, picklable)."""

    name: str
    value_multiplier: float = 1.0
    deadline_stretch: float = 1.0
    price_multiplier: float = 1.0
    preemptible: bool = False
    weight: float = 1.0
    share: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a traffic class needs a non-empty name")
        for field_name in ("value_multiplier", "deadline_stretch",
                           "price_multiplier", "weight", "share"):
            value = getattr(self, field_name)
            if not (isinstance(value, (int, float))
                    and math.isfinite(value) and value > 0):
                raise ValueError(f"{field_name} must be a positive finite "
                                 f"number, got {value!r}")


#: The pre-class pipeline as a class: every knob neutral.
DEFAULT_CLASS = TrafficClass("default")


@dataclass(frozen=True)
class ClassMix:
    """An ordered set of traffic classes with normalised shares.

    ``assign`` draws which class a synthesized request belongs to.  A
    single-class mix returns its class **without consuming the RNG** —
    the bit-identity guarantee the single-class differential test
    relies on; multi-class mixes draw exactly one uniform sample per
    request.
    """

    classes: tuple[TrafficClass, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("a class mix needs at least one class")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names in mix: {names}")

    @classmethod
    def of(cls, *classes: TrafficClass) -> "ClassMix":
        return cls(tuple(classes))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)

    def by_name(self, name: str) -> TrafficClass:
        for c in self.classes:
            if c.name == name:
                return c
        raise KeyError(f"unknown traffic class {name!r}; mix has "
                       f"{list(self.names)}")

    def assign(self, rng) -> TrafficClass:
        """Draw one class (zero RNG draws for a single-class mix)."""
        if len(self.classes) == 1:
            return self.classes[0]
        total = sum(c.share for c in self.classes)
        u = rng.random() * total
        acc = 0.0
        for c in self.classes:
            acc += c.share
            if u < acc:
                return c
        return self.classes[-1]


#: Named mixes usable anywhere a ``classes=`` knob is accepted.  The
#: three-tier ``qos3`` mix is the scenario-diversity workhorse:
#: interactive (tight deadlines, premium prices, heavier SAM weight),
#: elastic (the paper's default class), background (loose deadlines,
#: cheap, preemptible).
CLASS_MIXES: dict[str, ClassMix] = {
    "default": ClassMix.of(DEFAULT_CLASS),
    "qos3": ClassMix.of(
        TrafficClass("interactive", value_multiplier=1.5,
                     deadline_stretch=0.5, price_multiplier=1.25,
                     preemptible=False, weight=2.0, share=0.2),
        TrafficClass("elastic", share=0.5),
        TrafficClass("background", value_multiplier=0.6,
                     deadline_stretch=1.5, price_multiplier=0.8,
                     preemptible=True, weight=0.5, share=0.3),
    ),
}


def resolve_classes(spec) -> tuple[TrafficClass, ...] | None:
    """Normalise a ``classes=`` knob to a tuple of classes (or ``None``).

    Accepts ``None`` (no classes — the pre-class pipeline), a named mix
    (``"qos3"``), a :class:`ClassMix`, a single :class:`TrafficClass`,
    or an iterable of them.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        if spec not in CLASS_MIXES:
            raise ValueError(f"unknown class mix {spec!r}; expected one "
                             f"of {sorted(CLASS_MIXES)}")
        return CLASS_MIXES[spec].classes
    if isinstance(spec, ClassMix):
        return spec.classes
    if isinstance(spec, TrafficClass):
        return (spec,)
    if isinstance(spec, Iterable) and not isinstance(spec, (bytes, dict)):
        classes = tuple(spec)
        if not all(isinstance(c, TrafficClass) for c in classes):
            raise TypeError("classes iterable must contain TrafficClass "
                            "instances")
        return ClassMix(classes).classes  # validates non-empty / names
    raise TypeError(f"cannot interpret {type(spec).__name__} as traffic "
                    "classes (expected None, a mix name, a ClassMix, a "
                    "TrafficClass or an iterable of them)")
