"""Lazy package exports (PEP 562): a package's public names load on first use.

An ``__init__`` that re-exports its submodules' names eagerly imports all of
them whenever any one submodule is imported.  A spawned build worker imports
``repro.ingest.worker`` by name, and an eager ``repro/__init__.py`` would make
it load the whole library, the gateway with asyncio included, to run a
snap-and-scatter loop.  With :func:`lazy_exports` the package imports a
name's submodule when the name is first read.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for ``package``, serving each
    name in ``table`` (``{submodule: (name, ...)}``) from its submodule.

    ``__getattr__`` imports the submodule on first use and stores the value
    in the package's namespace, so later reads never reach it; an unknown
    name raises ``AttributeError``.  No lock is needed: the import system
    serialises the submodule's import, and racing threads store the same
    object.
    """
    origin = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(origin[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
