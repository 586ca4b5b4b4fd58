"""Lazy package namespaces (PEP 562).

Every ``repro`` package ``__init__`` publishes names that live in its
submodules.  Importing them eagerly made ``import repro.xdmod.snapshot``
run every sibling of ``snapshot`` — and, through ``repro/__init__``,
the whole synthesis side — so a process that only serves or prints a
report paid for the import graph of one that simulates a facility.
:func:`lazy_exports` turns an ``__init__`` into a name -> module table
instead: a public name is imported from its home the first time it is
asked for, and importing a submodule runs no sibling.
"""

from __future__ import annotations

import sys
from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """Module ``(__getattr__, __dir__, __all__)`` for a package
    ``__init__`` (the shape of ``lazy_loader.attach``).

    *exports* maps a module (absolute name) to the public names the
    package re-exports from it; ``"alias=attr"`` publishes the module's
    ``attr`` as ``alias``.  ``__all__`` lists them in table order.  A
    resolved name is stored in the package namespace, so the hook runs
    once per name.
    """
    home = {}
    for module, names in exports.items():
        for name in names:
            alias, _, attr = name.partition("=")
            home[alias] = (module, attr or alias)

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module, attr = home[name]
        value = getattr(import_module(module), attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, list(home)
