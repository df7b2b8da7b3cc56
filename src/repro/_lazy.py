"""Lazy package namespaces (PEP 562).

A package ``__init__`` declares its public names once, as a map from
name to defining module, and binds what :func:`attach` returns::

    __all__, __getattr__, __dir__ = attach(
        __name__, {"BufferSimulation": "repro.buffer.simulator", ...}
    )

Importing the package then runs none of its submodules.  The first access
to an exported name imports its defining module and stores the name in
the package namespace, so later accesses are plain attribute reads; any
other attribute that names a submodule (``repro.buffer.kernels``) imports
that submodule.  A run therefore executes only the modules it uses, not
every module some package re-exports.

One kind of export is bound at once: a name defined in the submodule of
the same name (the function ``repro.core.nurand``).  Importing that
submodule would bind the module over the package attribute.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def attach(
    package: str, exports: Mapping[str, str]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each public name to the module that defines it.
    """
    module_of = dict(exports)
    namespace = sys.modules[package]

    def load(name: str) -> object:
        value = getattr(importlib.import_module(module_of[name]), name)
        setattr(namespace, name, value)
        return value

    for name, module in module_of.items():
        if module == f"{package}.{name}":
            load(name)

    def __getattr__(name: str) -> object:
        if name in module_of:
            return load(name)
        submodule = f"{package}.{name}"
        if not name.startswith("__"):
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(vars(namespace)) | set(module_of))

    return list(module_of), __getattr__, __dir__
