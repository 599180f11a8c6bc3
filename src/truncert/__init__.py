"""Certified truncation thresholds for bosonic and gauge-field simulation.

The package computes rigorous leakage, truncation, eigenstate-tail, and
product-formula bounds from a model's walk profile, and cross-checks every
bound against sparse exact evolution at desk scale.

Every library module's public names are re-exported here, resolved on
first access (PEP 562): `walk_profiles` and `bounds` need only `math`,
so `import truncert` and the analytic commands never load numpy or scipy.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Library modules in dependency order, the pure-`math` ones first, so a
#: name they define resolves without importing the numpy modules.
_LIBRARY = (
    "walk_profiles",
    "bounds",
    "fock_algebra",
    "models",
    "propagate",
    "trotter",
    "verify",
)


def _library():
    for name in _LIBRARY:
        yield importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _LIBRARY or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [n for mod in _library() for n in mod.__all__]
    elif name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        mod = next((m for m in _library() if name in m.__all__), None)
        if mod is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(mod, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LIBRARY, *__getattr__("__all__")})
