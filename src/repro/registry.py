"""One typed registry for schemes and scenarios.

Historically the two name->factory tables lived in separate modules with
separate idioms: the scheme table (a dict of
:class:`~repro.experiments.runner.SchemeSpec`) raised a bare ``KeyError``
on unknown names, while the scenario table (a dict of builder
callables) was validated ad hoc with ``ValueError`` at each call site.
This module gives both the same surface — ``register`` / ``get`` /
``names`` — with typed errors that preserve the historical exception
hierarchy, so existing ``except KeyError`` / ``except ValueError``
clauses keep working:

- :class:`UnknownSchemeError` is a ``KeyError`` (what ``scheme_spec``
  raised);
- :class:`UnknownScenarioError` is a ``ValueError`` (what
  ``ScenarioSpec`` raised);
- both share :class:`RegistryError` for callers that want one handler.

Lookups are exact-first with a case-insensitive fallback, so
``SCHEMES.get("pretium")`` resolves to the canonically named
``"Pretium"`` spec — convenient for CLI use (``--schemes
pretium,noprices``).

The registries are populated lazily: the first lookup on
:data:`SCHEMES` or :data:`SCENARIOS` imports the defining module
(:mod:`repro.experiments.runner` / :mod:`repro.experiments.scenarios`)
and registers its table.
"""

from __future__ import annotations

from typing import Callable


class RegistryError(Exception):
    """Base class for registry lookup failures."""


class UnknownSchemeError(RegistryError, KeyError):
    """An unregistered scheme name (a ``KeyError``, historically)."""

    def __str__(self) -> str:
        # KeyError's repr-the-arg behaviour would mangle the message.
        return self.args[0] if self.args else ""


class UnknownScenarioError(RegistryError, ValueError):
    """An unregistered scenario name (a ``ValueError``, historically)."""


class Registry:
    """A name -> entry table with uniform register/get/names helpers.

    ``loader`` is a zero-argument callable invoked once, on first
    access, to populate the registry (typically by importing the module
    whose import-time side effect is a series of :meth:`register`
    calls).  ``error`` is the exception class raised for unknown names.
    """

    def __init__(self, kind: str, error: type[RegistryError],
                 loader: Callable[[], None] | None = None) -> None:
        self.kind = kind
        self._error = error
        self._loader = loader
        self._entries: dict[str, object] = {}

    def _ensure(self) -> None:
        if self._loader is not None:
            loader, self._loader = self._loader, None
            loader()

    # -- population --------------------------------------------------------
    def register(self, name: str, entry, replace: bool = False) -> None:
        """Add ``entry`` under ``name``.

        Re-registering an existing name raises unless ``replace=True``
        (a typo'd duplicate registration should fail loudly; tests and
        plugins that *mean* to override say so).
        """
        if not name:
            raise RegistryError(f"{self.kind} name must be non-empty")
        if not replace and name in self._entries:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; "
                "pass replace=True to override")
        self._entries[name] = entry

    # -- lookup -------------------------------------------------------------
    def get(self, name: str):
        """The entry for ``name`` (case-insensitive fallback).

        Raises this registry's typed error — listing the registered
        names — when nothing matches.
        """
        self._ensure()
        entry = self._entries.get(name)
        if entry is not None:
            return entry
        folded = str(name).lower()
        for registered, entry in self._entries.items():
            if registered.lower() == folded:
                return entry
        raise self._error(f"unknown {self.kind} {name!r}; expected one of "
                          f"{self.names()}")

    def names(self) -> list[str]:
        """Sorted registered names."""
        self._ensure()
        return sorted(self._entries)

    def items(self):
        """(name, entry) pairs, in registration order."""
        self._ensure()
        return list(self._entries.items())

    def __contains__(self, name: str) -> bool:
        try:
            self.get(name)
        except RegistryError:
            return False
        return True

    def __iter__(self):
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure()
        return len(self._entries)

    def __repr__(self) -> str:
        populated = "lazy" if self._loader is not None else \
            f"{len(self._entries)} entries"
        return f"Registry({self.kind}, {populated})"


def _load_schemes() -> None:
    from .experiments.runner import SCHEME_SPECS
    for name, spec in SCHEME_SPECS.items():
        SCHEMES.register(name, spec, replace=True)


def _load_scenarios() -> None:
    from .experiments.scenarios import _BUILDERS
    for name, builder in _BUILDERS.items():
        SCENARIOS.register(name, builder, replace=True)


#: Every named evaluation scheme, as picklable
#: :class:`~repro.experiments.runner.SchemeSpec` entries.
SCHEMES = Registry("scheme", UnknownSchemeError, loader=_load_schemes)

#: Every named scenario builder (callables returning a
#: :class:`~repro.experiments.scenarios.Scenario`).
SCENARIOS = Registry("scenario", UnknownScenarioError,
                     loader=_load_scenarios)
