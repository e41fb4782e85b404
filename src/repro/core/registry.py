"""A small name-to-factory registry.

Models, devices, frameworks and experiments are all looked up by the string
names the paper uses ("ResNet-18", "Jetson TX2", "TensorRT", "fig02"), so a
single generic registry keeps those namespaces consistent and gives uniform
error messages with close-match suggestions.
"""

from __future__ import annotations

import difflib
from typing import Callable, Generic, Iterator, TypeVar

from repro.core.errors import UnknownEntryError

T = TypeVar("T")


def canonical_name(name: str) -> str:
    """Normalize a user-facing name to a lookup key.

    Case, spaces, underscores and dashes are ignored so that "ResNet-18",
    "resnet18" and "ResNet_18" all resolve to the same entry.
    """
    return name.lower().replace("-", "").replace("_", "").replace(" ", "")


class Registry(Generic[T]):
    """Maps canonical names to factories producing fresh instances."""

    def __init__(self, kind: str):
        self._kind = kind
        self._factories: dict[str, Callable[[], T]] = {}
        self._display_names: dict[str, str] = {}

    @property
    def kind(self) -> str:
        return self._kind

    def register(self, name: str, factory: Callable[[], T], *, aliases: tuple[str, ...] = ()) -> None:
        """Register ``factory`` under ``name`` and optional aliases."""
        keys = dict.fromkeys(canonical_name(c) for c in (name, *aliases))
        for key in keys:
            if key in self._factories:
                raise ValueError(f"duplicate {self._kind} name: {key!r}")
            self._factories[key] = factory
            self._display_names[key] = name

    def create(self, name: str) -> T:
        """Instantiate the entry registered under ``name``."""
        return self._factories[self._key(name)]()

    def display_name(self, name: str) -> str:
        """Return the primary display name for ``name`` (or any alias)."""
        return self._display_names[self._key(name)]

    def names(self) -> list[str]:
        """Primary display names, in registration order, without aliases."""
        seen: list[str] = []
        for display in self._display_names.values():
            if display not in seen:
                seen.append(display)
        return seen

    def __contains__(self, name: str) -> bool:
        return canonical_name(name) in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())

    def _key(self, name: str) -> str:
        """The registered key for ``name``, or the unknown-entry error."""
        key = canonical_name(name)
        if key not in self._factories:
            suggestion = self._suggest(key)
            hint = f" (did you mean {suggestion!r}?)" if suggestion else ""
            raise UnknownEntryError(f"unknown {self._kind}: {name!r}{hint}")
        return key

    def _suggest(self, key: str) -> str | None:
        matches = difflib.get_close_matches(key, self._factories.keys(), n=1, cutoff=0.6)
        return self._display_names[matches[0]] if matches else None
