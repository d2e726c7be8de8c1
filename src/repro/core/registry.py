"""One registry for every pluggable strategy, resolvable by name.

A strategy *kind* (``"split"``, ``"deletion"``, ``"planner"``,
``"estimator"``, ``"repair"``) maps names to factories.  :meth:`resolve`
turns whatever the user supplied — a registry name (any case), a
strategy class, an already-built instance, or ``None`` — into the
instance the cleaning loops run, and :meth:`name_of` maps an instance
back to its name for the shard wire.

Names resolve case-insensitively, so the capitalised display names
(``"MinCut"``, ``"QOCO-"``) and the lowercase config spellings
(``QOCOConfig(split="mincut")``) land on the same entry.

Strategy modules register themselves at import time; kinds whose
modules may not be imported yet (e.g. ``repro.plan`` registering the
``"bandit"`` planner) are listed in :data:`_KIND_MODULES` and imported
lazily on the first miss.
"""

from __future__ import annotations

import importlib
import threading
from typing import Any, Callable, Iterable, Optional


class RegistryError(ValueError):
    """An unknown strategy name or kind was requested."""


class StrategyRegistry:
    """kind -> name -> factory, with string/instance/class resolution."""

    def __init__(self) -> None:
        self._entries: dict[str, dict[str, Callable[[], Any]]] = {}
        self._display: dict[str, dict[str, str]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        kind: str,
        name: str,
        factory: Callable[[], Any],
        *,
        aliases: Iterable[str] = (),
    ) -> None:
        """Register *factory* under ``kind``/``name`` (plus *aliases*).

        *factory* is any zero-argument callable — usually the strategy
        class itself.  Re-registering a name overwrites it (last wins),
        which keeps module reloads harmless.
        """
        with self._lock:
            table = self._entries.setdefault(kind, {})
            display = self._display.setdefault(kind, {})
            for label in (name, *aliases):
                table[label.lower()] = factory
                display[label.lower()] = name
            display[name.lower()] = name

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def kinds(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def names(self, kind: str) -> list[str]:
        """The canonical registered names for *kind* (sorted)."""
        self._ensure_kind(kind)
        with self._lock:
            return sorted(set(self._display.get(kind, {}).values()))

    def resolve(self, kind: str, spec: Any) -> Any:
        """Turn *spec* into a strategy instance.

        * ``None`` passes through (the caller's "use the default");
        * a string is looked up case-insensitively under *kind*;
        * a class is instantiated with no arguments;
        * anything else is assumed to already be an instance.
        """
        if spec is None:
            return None
        if isinstance(spec, str):
            factory = self._lookup(kind, spec)
            return factory()
        if isinstance(spec, type):
            return spec()
        return spec

    def name_of(self, kind: str, value: Any) -> str:
        """The canonical name whose factory is *value* or built it.

        *value* is an instance (matched by exact type against class
        factories) or a factory itself.  Raises :class:`RegistryError`
        when nothing registered under *kind* matches.
        """
        self._ensure_kind(kind)
        with self._lock:
            for key, factory in self._entries.get(kind, {}).items():
                if factory is value or type(value) is factory:
                    return self._display[kind][key]
        raise RegistryError(
            f"{kind} {value!r} has no registered name; registered names: "
            f"{self.names(kind)}"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _lookup(self, kind: str, name: str) -> Callable[[], Any]:
        key = name.lower()
        with self._lock:
            factory = self._entries.get(kind, {}).get(key)
        if factory is not None:
            return factory
        self._ensure_kind(kind)
        with self._lock:
            factory = self._entries.get(kind, {}).get(key)
        if factory is not None:
            return factory
        known = self.names(kind) if kind in self._entries else []
        raise RegistryError(
            f"unknown {kind} strategy {name!r}; registered names: {known}"
        )

    def _ensure_kind(self, kind: str) -> None:
        """Import the modules that register *kind*'s built-ins."""
        for module in _KIND_MODULES.get(kind, ()):
            importlib.import_module(module)


#: Modules that register each kind's built-in strategies on import.
#: Resolution imports them lazily so the registry itself stays a leaf
#: module (no import cycles with the strategy modules it serves).
_KIND_MODULES: dict[str, tuple[str, ...]] = {
    "split": ("repro.core.split",),
    "deletion": ("repro.core.deletion", "repro.core.heuristics"),
    "planner": ("repro.plan.planner",),
    "estimator": ("repro.core.qoco",),
    "repair": ("repro.constraints.repairer",),
}

#: The process-wide registry every strategy module registers into.
REGISTRY = StrategyRegistry()


def resolve_strategy(kind: str, spec: Any) -> Any:
    """Module-level convenience for :meth:`StrategyRegistry.resolve`."""
    return REGISTRY.resolve(kind, spec)


__all__ = ["REGISTRY", "RegistryError", "StrategyRegistry", "resolve_strategy"]
