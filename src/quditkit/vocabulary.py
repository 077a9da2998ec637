"""Names the command-line parser offers, defined once and without numpy.

``universality``, ``clifford`` and ``verify`` re-export these objects; the
CLI builds its parser from this module alone, so ``--version``, ``--help``
and usage errors import no library module.
"""

REAL_ANTIHERMITIAN = "real-antihermitian"
COMPLEX_TRACELESS = "complex-traceless"
MODES = (REAL_ANTIHERMITIAN, COMPLEX_TRACELESS)

GENERATOR_SET_NAMES = (
    "clifford",
    "generalized",
    "canonical",
    "biproducts",
    "clifford-universal",
    "qudit-universal",
)

# Default grid of the verify suites: exercises both the qubit and qudit paths
# in a few seconds.
DEFAULT_DIMS = (2, 3, 4, 5)
DEFAULT_SITES = (1, 2)
