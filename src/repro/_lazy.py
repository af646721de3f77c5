"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` lists which submodule defines each public name and
binds the hooks this module returns; a name's submodule is imported the
first time the name is read, so importing a package costs only the
submodules its caller actually uses::

    _LAZY_EXPORTS = {"repro.core.laggard": ("IterationClass", "LaggardAnalysis")}
    __all__, __getattr__, __dir__ = lazy_exports(__name__, _LAZY_EXPORTS)
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__all__, __getattr__, __dir__)`` of ``package``.

    ``exports`` maps each submodule to the names it defines that
    ``package`` re-exports.  ``__getattr__`` imports a name's submodule on
    first access and caches the value in the package namespace, so later
    reads are plain attribute lookups; any other name raises
    :class:`AttributeError`.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__
