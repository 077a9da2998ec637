"""Loop decomposition kept as the slow reference for the FFT Weyl kernel.

``reference_decompose`` takes one trace inner product per monomial and
``reference_reconstruct`` sums the weighted monomials one at a time.  Tests
compare :func:`quditkit.weyl_decompose` and :func:`quditkit.weyl_reconstruct`
against them.

The ``commutator-closed-form`` verify check gathers each commutator's one
wrapped diagonal by index arithmetic.  Two dense references form the
commutators by matrix products instead: ``reference_closed_form_residual``
decomposes them one at a time, and ``blocked_closed_form_residual``
decomposes the l^2 commutators of one left monomial as one (l^2, l, l)
block, O(l^7) in all.  Both build the monomials through
``quditkit.weyl.weyl_element``, which scatters them with
``quditkit.weyl._monomials`` at call time, as the check does, so a test
that replaces that changes them too.  Nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np

from quditkit import weyl
from quditkit.linalg import as_matrix, hs_inner, max_abs
from quditkit.weyl import _check_order, weyl_commutator_coefficient, weyl_decompose, weyl_element


def reference_decompose(m, l: int) -> np.ndarray:
    """Entry (a, b) is ``hs_inner(m, shift^a @ clock^b, normalizer=l)``."""
    l = _check_order(l)
    m = as_matrix(m)
    if m.shape[0] != l:
        raise ValueError(f"dimension mismatch: matrix is {m.shape[0]}, expected {l}")
    table = np.zeros((l, l), dtype=complex)
    for a in range(l):
        for b in range(l):
            table[a, b] = hs_inner(m, weyl_element(l, a, b), normalizer=l)
    return table


def reference_reconstruct(table) -> np.ndarray:
    """Sum of ``table[a, b] * shift^a @ clock^b`` over the nonzero entries."""
    table = np.asarray(table, dtype=complex)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError(f"coefficient table must be square, got shape {table.shape}")
    l = table.shape[0]
    _check_order(l)
    out = np.zeros((l, l), dtype=complex)
    for a in range(l):
        for b in range(l):
            c = table[a, b]
            if c != 0:
                out += c * weyl_element(l, a, b)
    return out


def _monomials(l: int) -> np.ndarray:
    # monomials[a * l + b] is W(a, b)
    return np.stack([weyl.weyl_element(l, a, b) for a in range(l) for b in range(l)])


def reference_closed_form_residual(l: int) -> float:
    """Max residual of the commutator closed form, one decomposition per commutator."""
    monomials = _monomials(l)
    closed_form = 0.0
    for p, left in enumerate(monomials):
        commutators = left @ monomials - monomials @ left
        for q, brute in enumerate(commutators):
            coeff, (ri, rj) = weyl_commutator_coefficient(l, divmod(p, l), divmod(q, l))
            table = weyl_decompose(brute, l)
            table[ri, rj] -= coeff
            closed_form = max(closed_form, max_abs(table))
    return closed_form


def blocked_closed_form_residual(l: int) -> float:
    """Max residual of the commutator closed form, one decomposition per left monomial.

    Row q of a left monomial's (l^2, l^2) table must hold the closed-form
    coefficient at the target code and zero elsewhere.
    """
    monomials = _monomials(l)
    closed_form = 0.0
    for p, left in enumerate(monomials):
        tables = weyl._decompose(left @ monomials - monomials @ left, l, 1).reshape(l * l, l * l)
        for q in range(l * l):
            coeff, (ri, rj) = weyl_commutator_coefficient(l, divmod(p, l), divmod(q, l))
            tables[q, ri * l + rj] -= coeff
        closed_form = max(closed_form, max_abs(tables))
    return closed_form
