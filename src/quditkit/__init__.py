"""Computational algebra for finite-dimensional quantum systems.

The package constructs the shift/clock operator pair and the families built
on it (monomial operator bases, Pauli and order-l generator arrays,
canonical per-site pairs), verifies their defining identities numerically,
decides universality of generator sets by Lie-algebra commutator closure,
and applies gates to multi-qudit state vectors.  A CLI (``quditkit``)
exposes generation, verification, closure, decomposition, and circuit
application over flat JSON files.
"""

from .linalg import *  # noqa: F401,F403
from .weyl import *  # noqa: F401,F403
from .clifford import *  # noqa: F401,F403
from .universality import *  # noqa: F401,F403
from .circuit import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from . import circuit, clifford, linalg, universality, verify, weyl

__version__ = "0.1.0"

# each public name is listed once, in the __all__ of the module defining it
__all__ = [
    "__version__",
    *linalg.__all__,
    *weyl.__all__,
    *clifford.__all__,
    *universality.__all__,
    *circuit.__all__,
    *verify.__all__,
]
