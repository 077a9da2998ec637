"""Sequential closure engine kept as the slow reference for the batched one.

``reference_closure`` is the candidate-by-candidate sweep and
``reference_extend`` the element-by-element modified Gram-Schmidt step it
was built on.  Tests compare :func:`quditkit.closure` and
:func:`quditkit.orthonormal_extend` against them; nothing in the package
imports this module.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from quditkit import ClosureResult, GeneratorSet, NonConvergenceError
from quditkit.linalg import ExtendResult, as_matrix, hs_inner, hs_norm


def reference_extend(
    basis: Sequence[np.ndarray],
    candidate,
    tol: float = 1e-9,
    normalizer: Optional[float] = None,
) -> ExtendResult:
    """Modified Gram-Schmidt against each basis element in turn, twice."""
    m = as_matrix(candidate, "candidate")
    norm0 = hs_norm(m, normalizer)
    if norm0 == 0.0:
        return ExtendResult(False, 0.0, None)
    residual = m.astype(complex, copy=True)
    for _ in range(2):
        for b in basis:
            residual -= hs_inner(residual, b, normalizer) * b
    rnorm = hs_norm(residual, normalizer)
    if rnorm <= tol * norm0:
        return ExtendResult(False, rnorm, None)
    return ExtendResult(True, rnorm, residual / rnorm)


def reference_closure(
    gen_set: GeneratorSet,
    max_rounds: Optional[int] = None,
    tol: float = 1e-9,
) -> ClosureResult:
    """Extend the basis by every commutator of each frontier element, one at a time."""
    if not gen_set.matrices:
        raise ValueError("generator set is empty")
    d = gen_set.dim
    target = d * d - 1
    if max_rounds is None:
        max_rounds = target + 2
    basis: List[np.ndarray] = []
    for m in gen_set.matrices:
        res = reference_extend(basis, m, tol=tol, normalizer=1.0)
        if res.accepted:
            basis.append(res.new_element)

    rounds = 0
    frontier_start = 0
    while frontier_start < len(basis) < target:
        if rounds == max_rounds:
            raise NonConvergenceError(
                f"basis still growing after {max_rounds} rounds "
                f"(dimension {len(basis)} of {target}); revisit the tolerance"
            )
        rounds += 1
        frontier_end = len(basis)
        for i in range(frontier_start, frontier_end):
            a = basis[i]
            stack = np.stack(basis)
            candidates = a @ stack - stack @ a
            for c in candidates:
                if hs_norm(c, 1.0) <= tol:
                    continue
                res = reference_extend(basis, c, tol=tol, normalizer=1.0)
                if res.accepted:
                    basis.append(res.new_element)
                    if len(basis) == target:
                        break
            if len(basis) == target:
                break
        frontier_start = frontier_end

    achieved = len(basis)
    return ClosureResult(
        achieved_dim=achieved,
        target_dim=target,
        basis=tuple(basis),
        rounds=rounds,
        tolerance_used=tol,
        universal=achieved == target,
    )
