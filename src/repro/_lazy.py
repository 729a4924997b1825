"""Lazy package exports (PEP 562 module ``__getattr__``).

A package that re-exports names from its submodules keeps one table from
each public name to the submodule that defines it, relative to the
package.  A name is imported on first access and then bound in the
package's globals, so later lookups never reach ``__getattr__`` again.
Any other attribute that names a submodule (``repro.core.evalplan``,
``repro.bench``) imports that submodule, as an eager ``__init__`` that
imported every submodule made it reachable.  ``import repro`` therefore
loads no subpackage, and a solve loads only the modules it runs;
``from repro import GPUEvaluator``, ``dir(repro)`` and
``from repro import *`` keep working unchanged.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, Tuple


def lazy_exports(namespace: Dict[str, object], exports: Mapping[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a package whose globals are
    ``namespace`` and whose public names resolve through ``exports``."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        if name in exports:
            module = importlib.import_module(f"{package}.{exports[name]}")
            value = getattr(module, name)
        elif name.startswith("__"):
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(namespace.get("__all__", ()))
                      | set(exports))

    return __getattr__, __dir__
