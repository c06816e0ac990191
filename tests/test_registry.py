"""Tests for the unified scheme/scenario registry (repro.registry).

One registry type, two instances: ``SCHEMES`` and ``SCENARIOS`` expose
the same register/get/names surface, raise *typed* errors that are also
the stdlib exception callers historically caught (``KeyError`` for
schemes, ``ValueError`` for scenarios).
"""

import pytest

from repro.registry import (Registry, RegistryError, SCENARIOS, SCHEMES,
                            UnknownScenarioError, UnknownSchemeError)


# -- the shared registry type -------------------------------------------------

def test_register_get_and_names_roundtrip():
    reg = Registry("widget", UnknownSchemeError)
    reg.register("Alpha", 1)
    reg.register("Beta", 2)
    assert reg.get("Alpha") == 1
    assert reg.names() == ["Alpha", "Beta"]
    assert list(reg) == ["Alpha", "Beta"]
    assert len(reg) == 2
    assert "Alpha" in reg and "Gamma" not in reg


def test_get_is_case_insensitive_with_exact_priority():
    reg = Registry("widget", UnknownSchemeError)
    reg.register("Pretium", "canonical")
    assert reg.get("pretium") == "canonical"
    assert reg.get("PRETIUM") == "canonical"
    # An exact name always wins over a case-folded match.
    reg.register("pretium", "lower")
    assert reg.get("pretium") == "lower"
    assert reg.get("Pretium") == "canonical"


def test_duplicate_registration_needs_replace():
    reg = Registry("widget", UnknownSchemeError)
    reg.register("a", 1)
    with pytest.raises(RegistryError, match="already registered"):
        reg.register("a", 2)
    reg.register("a", 2, replace=True)
    assert reg.get("a") == 2


def test_unknown_name_raises_typed_error_listing_names():
    reg = Registry("widget", UnknownSchemeError)
    reg.register("a", 1)
    with pytest.raises(UnknownSchemeError, match="unknown widget 'zz'"):
        reg.get("zz")
    with pytest.raises(UnknownSchemeError, match="'a'"):
        reg.get("zz")


def test_typed_errors_are_also_the_stdlib_exceptions():
    # Call sites that predate the registry catch KeyError (schemes) or
    # ValueError (scenarios); the typed errors must remain catchable
    # there, and str() must stay a readable message (KeyError reprs its
    # argument by default).
    assert issubclass(UnknownSchemeError, KeyError)
    assert issubclass(UnknownScenarioError, ValueError)
    assert issubclass(UnknownSchemeError, RegistryError)
    assert issubclass(UnknownScenarioError, RegistryError)
    message = "unknown scheme 'x'; expected one of ['a']"
    assert str(UnknownSchemeError(message)) == message


# -- the populated instances --------------------------------------------------

def test_schemes_registry_covers_the_evaluation_suite():
    names = SCHEMES.names()
    for expected in ("OPT", "NoPrices", "Pretium", "VCGLike"):
        assert expected in names
    spec = SCHEMES.get("pretium")  # case-insensitive CLI spelling
    assert spec.name == "Pretium"
    with pytest.raises(KeyError):
        SCHEMES.get("NopeScheme")


def test_scenarios_registry_covers_the_standard_worlds():
    names = SCENARIOS.names()
    for expected in ("standard", "tiny", "quick", "multiclass_medium",
                     "production"):
        assert expected in names
    builder = SCENARIOS.get("tiny")
    scenario = builder(seed=0)
    assert scenario.workload.n_requests > 0
    with pytest.raises(ValueError):
        SCENARIOS.get("nope_scenario")


def test_api_reexports_the_registry_surface():
    from repro import api
    assert api.SCHEMES is SCHEMES
    assert api.SCENARIOS is SCENARIOS
    assert api.UnknownSchemeError is UnknownSchemeError
    assert api.UnknownScenarioError is UnknownScenarioError

