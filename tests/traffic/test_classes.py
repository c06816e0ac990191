"""Tests for the traffic-class subsystem (repro.traffic.classes).

The contract under test: a :class:`TrafficClass` is a frozen, validated
spec; a single-class :class:`ClassMix` assigns without consuming any
randomness (the bit-identity guarantee the differential suite builds
on); and :func:`resolve_classes` normalises every accepted ``classes=``
spelling to the same tuple.
"""

import pickle

import numpy as np
import pytest

from repro.traffic.classes import (CLASS_MIXES, ClassMix, DEFAULT_CLASS,
                                   TrafficClass, resolve_classes)


# -- TrafficClass -------------------------------------------------------------

def test_default_class_is_neutral():
    assert DEFAULT_CLASS.name == "default"
    assert DEFAULT_CLASS.value_multiplier == 1.0
    assert DEFAULT_CLASS.deadline_stretch == 1.0
    assert DEFAULT_CLASS.price_multiplier == 1.0
    assert DEFAULT_CLASS.weight == 1.0
    assert not DEFAULT_CLASS.preemptible


def test_class_is_frozen_hashable_picklable():
    cls = TrafficClass("gold", value_multiplier=2.0)
    with pytest.raises(AttributeError):
        cls.weight = 3.0
    assert hash(cls) == hash(TrafficClass("gold", value_multiplier=2.0))
    assert pickle.loads(pickle.dumps(cls)) == cls


@pytest.mark.parametrize("kwargs", [
    {"name": ""},
    {"name": "x", "value_multiplier": 0.0},
    {"name": "x", "deadline_stretch": -1.0},
    {"name": "x", "price_multiplier": float("nan")},
    {"name": "x", "weight": float("inf")},
    {"name": "x", "share": 0.0},
])
def test_bad_class_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        TrafficClass(**kwargs)


# -- ClassMix -----------------------------------------------------------------

def test_mix_validates_membership_and_names():
    with pytest.raises(ValueError, match="at least one class"):
        ClassMix(())
    with pytest.raises(ValueError, match="duplicate class names"):
        ClassMix.of(TrafficClass("a"), TrafficClass("a", weight=2.0))
    mix = CLASS_MIXES["qos3"]
    assert mix.names == ("interactive", "elastic", "background")
    # The elastic class is the paper's neutral default class.
    assert mix.by_name("elastic") == TrafficClass("elastic", share=0.5)
    with pytest.raises(KeyError, match="unknown traffic class"):
        mix.by_name("platinum")


def test_single_class_mix_assigns_without_consuming_rng():
    """The bit-identity cornerstone: one class -> zero RNG draws."""
    mix = ClassMix.of(DEFAULT_CLASS)
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert mix.assign(rng) is DEFAULT_CLASS
    assert rng.bit_generator.state == before


def test_multi_class_mix_draws_exactly_one_uniform_per_assign():
    mix = CLASS_MIXES["qos3"]
    rng = np.random.default_rng(7)
    shadow = np.random.default_rng(7)
    for _ in range(50):
        mix.assign(rng)
        shadow.random()
    assert rng.bit_generator.state == shadow.bit_generator.state


def test_multi_class_assignment_tracks_shares():
    mix = CLASS_MIXES["qos3"]
    rng = np.random.default_rng(0)
    counts = {name: 0 for name in mix.names}
    n = 4000
    for _ in range(n):
        counts[mix.assign(rng).name] += 1
    for cls in mix.classes:
        assert counts[cls.name] / n == pytest.approx(cls.share, abs=0.05)


# -- resolve_classes ----------------------------------------------------------

def test_resolve_accepts_every_spelling():
    qos3 = CLASS_MIXES["qos3"].classes
    assert resolve_classes(None) is None
    assert resolve_classes("qos3") == qos3
    assert resolve_classes(CLASS_MIXES["qos3"]) == qos3
    assert resolve_classes(DEFAULT_CLASS) == (DEFAULT_CLASS,)
    assert resolve_classes(list(qos3)) == qos3


def test_resolve_rejects_unknown_and_malformed_specs():
    with pytest.raises(ValueError, match="unknown class mix"):
        resolve_classes("qos99")
    with pytest.raises(TypeError, match="TrafficClass instances"):
        resolve_classes(["interactive", "elastic"])
    with pytest.raises(TypeError, match="cannot interpret"):
        resolve_classes(3.14)
    with pytest.raises(ValueError, match="at least one class"):
        resolve_classes(())
