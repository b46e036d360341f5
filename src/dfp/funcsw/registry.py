"""Algorithm registry: what the loader needs to find and start node bodies."""

from __future__ import annotations

import importlib

from dfp.funcsw.types import (
    AlgorithmDescriptor,
    AlgorithmNotFound,
    DuplicateAlgorithm,
    GraphError,
)


class AlgorithmRegistry:
    def __init__(self):
        self._algorithms: dict[tuple[str, str], tuple[AlgorithmDescriptor, object]] = {}

    def register(self, descriptor: AlgorithmDescriptor, factory=None) -> None:
        """Register a descriptor with an optional in-process factory.

        Without a factory, the descriptor's ``entry`` (``module:attribute``)
        is imported lazily on first resolve.
        """
        key = (descriptor.name, descriptor.version)
        if key in self._algorithms:
            raise DuplicateAlgorithm(f"algorithm {key} already registered")
        self._algorithms[key] = (descriptor, factory)

    def resolve(self, name: str, version: str) -> tuple[AlgorithmDescriptor, object]:
        """Exact (name, version) lookup returning (descriptor, factory)."""
        key = (name, version)
        try:
            descriptor, factory = self._algorithms[key]
        except KeyError:
            raise AlgorithmNotFound(f"no algorithm {name}@{version}") from None
        if factory is None:
            factory = self._load_entry(descriptor.entry)
            self._algorithms[key] = (descriptor, factory)
        return descriptor, factory

    @staticmethod
    def _load_entry(entry: str):
        module_name, sep, attr = entry.partition(":")
        if not sep or not module_name or not attr:
            raise GraphError(f"entry must look like 'module:attribute', got {entry!r}")
        try:
            module = importlib.import_module(module_name)
            return getattr(module, attr)
        except (ImportError, AttributeError) as exc:
            raise AlgorithmNotFound(f"cannot load entry {entry!r}: {exc}") from exc
