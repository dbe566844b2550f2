"""Package exports that import their submodule on first use (PEP 562).

``repro.service`` and ``repro.obs`` re-export names from submodules most
entry points never run (an asyncio HTTP server and its client; the
profiling harness). Importing those with
the package made every ``mrlbm run``, every forked rank and every
``build_single`` cell pay for them; a package that assigns
``__getattr__ = lazy_exports(__name__, {...})`` keeps the names — and its
``__all__`` — and imports the submodule when one of them is first read.
"""

from __future__ import annotations

import sys
from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """Module ``__getattr__`` for ``package`` over ``{submodule: names}``.

    Reading one of the names (or the submodule itself) imports the
    submodule and caches the value on the package, so the hook runs once
    per name; anything else raises the usual ``AttributeError``.
    """
    owner = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in exports:
            return import_module(f"{package}.{name}")
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{owner[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
