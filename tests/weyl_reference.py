"""Loop decomposition kept as the slow reference for the FFT Weyl kernel.

``reference_decompose`` takes one trace inner product per monomial and
``reference_reconstruct`` sums the weighted monomials one at a time.  Tests
compare :func:`quditkit.weyl_decompose` and :func:`quditkit.weyl_reconstruct`
against them.  ``reference_closed_form_residual`` is the per-commutator loop
the ``commutator-closed-form`` verify check replaced with one decomposition
per left monomial.  Nothing in the package imports this module.
"""

from __future__ import annotations

import numpy as np

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


def reference_closed_form_residual(l: int) -> float:
    """Max residual of the commutator closed form, one decomposition per commutator."""
    # monomials[a * l + b] is W(a, b)
    monomials = np.stack([weyl_element(l, a, b) for a in range(l) for b in range(l)])
    closed_form = 0.0
    for p, left in enumerate(monomials):
        commutators = left @ monomials - monomials @ left
        for q, brute in enumerate(commutators):
            coeff, (ri, rj) = weyl_commutator_coefficient(l, divmod(p, l), divmod(q, l))
            table = weyl_decompose(brute, l)
            table[ri, rj] -= coeff
            closed_form = max(closed_form, max_abs(table))
    return closed_form
