"""Computational algebra for finite-dimensional quantum systems.

The package constructs the shift/clock operator pair and the families built
on it (monomial operator bases, Pauli and order-l generator arrays,
canonical per-site pairs), verifies their defining identities numerically,
decides universality of generator sets by Lie-algebra commutator closure,
and applies gates to multi-qudit state vectors.  A CLI (``quditkit``)
exposes generation, verification, closure, decomposition, and circuit
application over flat JSON files.

``import quditkit`` loads neither numpy nor the library modules.  The first
read of a public name, of ``__all__``, or a ``from quditkit import *``
imports the library; a submodule (``from quditkit import cli``) imports only
itself and what it needs.
"""

import importlib

__version__ = "0.1.0"

# the modules whose __all__ make up the public namespace; each public name is
# listed once, in the __all__ of the module defining it
_LIBRARY = ("linalg", "weyl", "clifford", "universality", "circuit", "verify")
_SUBMODULES = frozenset(_LIBRARY + ("cli", "serialize", "vocabulary"))


def _load_library() -> list:
    names = ["__version__"]
    for module_name in _LIBRARY:
        module = importlib.import_module(f"{__name__}.{module_name}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    return names


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("__"):
        if "__all__" not in globals():
            globals()["__all__"] = _load_library()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
