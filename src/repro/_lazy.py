"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its modules would
import every one of them, and everything they import, the first time
anything under the package is imported.  :func:`lazy_exports` builds
the module-level ``__getattr__`` and ``__dir__`` that import a defining
module only when one of its names is first read, so importing one
module of a package costs that module and what it needs, not its
siblings.
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``.

    ``exports`` maps a module (absolute, or relative to the package
    when it starts with ``.``) to the names it provides.  A name is resolved
    on first access and cached in the package namespace, so later reads
    are plain attribute lookups.  A submodule that is not yet imported
    resolves too (``repro.v2d`` after ``import repro``), as it did while
    the package imported it eagerly.
    """
    package = namespace["__name__"]
    origin = {
        name: importlib.util.resolve_name(module, package)
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> Any:
        if name in origin:
            value = getattr(importlib.import_module(origin[name]), name)
        elif not name.startswith("_") and importlib.util.find_spec(f"{package}.{name}"):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
